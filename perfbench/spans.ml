type t = {
  on : bool;
  names : (string, int) Hashtbl.t;
  mutable by_kind : string array;
  mutable n : int;
  mutable ids : int array;
  mutable kinds : int array;
  mutable parents : int array;
  mutable starts : int array;
  mutable stops : int array;
}

let create ~enabled =
  let cap = if enabled then 4096 else 0 in
  {
    on = enabled;
    names = Hashtbl.create 16;
    by_kind = [||];
    n = 0;
    ids = Array.make cap 0;
    kinds = Array.make cap 0;
    parents = Array.make cap 0;
    starts = Array.make cap 0;
    stops = Array.make cap 0;
  }

let enabled t = t.on

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let kind t name =
  match Hashtbl.find_opt t.names name with
  | Some k -> k
  | None ->
      let k = Array.length t.by_kind in
      Hashtbl.replace t.names name k;
      t.by_kind <- Array.append t.by_kind [| name |];
      k

let grow a n =
  let b = Array.make (2 * n) 0 in
  Array.blit a 0 b 0 n;
  b

let record t ~kind ~id ~parent ~start ~stop =
  if t.on then begin
    if t.n = Array.length t.ids then begin
      t.ids <- grow t.ids t.n;
      t.kinds <- grow t.kinds t.n;
      t.parents <- grow t.parents t.n;
      t.starts <- grow t.starts t.n;
      t.stops <- grow t.stops t.n
    end;
    let i = t.n in
    t.ids.(i) <- id;
    t.kinds.(i) <- kind;
    t.parents.(i) <- parent;
    t.starts.(i) <- start;
    t.stops.(i) <- stop;
    t.n <- i + 1
  end

let count t = t.n

let durations t k =
  let out = ref [] in
  for i = t.n - 1 downto 0 do
    if t.kinds.(i) = k then
      out := float_of_int (t.stops.(i) - t.starts.(i)) :: !out
  done;
  Array.of_list !out

let write t path =
  let oc = open_out path in
  let name k = if k < 0 then "-" else t.by_kind.(k) in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%s\t%d\t%d\n" t.ids.(i) (name t.kinds.(i))
      (name t.parents.(i)) t.starts.(i)
      (t.stops.(i) - t.starts.(i))
  done;
  close_out oc
