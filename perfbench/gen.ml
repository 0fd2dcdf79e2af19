(* The load generator: one thread, one connection to one replica, Wire
   frames both ways.

   Open loop: arrivals follow a seeded Poisson schedule and every
   request due by now is sent in one burst, however late the loop runs;
   latency is timed from the due time and the lateness is recorded as
   lag.  Closed loop: a fixed window of requests kept in flight.

   On a broken connection the generator reconnects to the next live
   replica and resubmits everything outstanding (at-least-once, as
   Smr.Client does). *)

module Wire = Smr.Wire
module Command = Smr.Command

type req = {
  rid : int;  (* generator-wide request number *)
  op : Command.op;
  due : int;  (* ns, monotonic *)
  step : int;
  mutable sent_at : int;
}

(* growable int column *)
type col = { mutable a : int array; mutable n : int }

let col () = { a = Array.make 1024 0; n = 0 }

let push c v =
  if c.n = Array.length c.a then begin
    let b = Array.make (2 * c.n) 0 in
    Array.blit c.a 0 b 0 c.n;
    c.a <- b
  end;
  c.a.(c.n) <- v;
  c.n <- c.n + 1

type t = {
  ports : int array;
  mutable member : int;
  mutable fd : Unix.file_descr option;
  mutable inbuf : Bytes.t;
  mutable in_len : int;
  out : Buffer.t;
  mutable burst_first : int;  (* rid of the first request in [out] *)
  pending : (int, req) Hashtbl.t;  (* wire seq -> request *)
  mutable next_seq : int;
  mutable next_rid : int;
  check : req -> Wire.reply -> bool;
  spans : Spans.t;
  k_request : int;
  k_encode : int;
  k_write : int;
  k_decode : int;
  (* one entry per answered or abandoned request, in completion order;
     a failed request keeps the time it waited, until its error reply or
     until it was abandoned *)
  done_ns : col;
  lat_ns : col;
  oks : col;  (* 1 answered as expected, 0 failed *)
  steps : col;
  rids : col;
  lags : col;  (* send time minus due time, ns, one per send *)
  lag_steps : col;
  mutable sent : int;
  mutable completed : int;
  mutable failed : int;
  mutable refused : int;  (* failed with a reply, as opposed to abandoned *)
  mutable resent : int;
  mutable reconnects : int;
  mutable late : int;  (* sent more than 1 ms after due *)
  mutable inflight_max : int;
  mutable phase_done : int;
  record_ops : bool;
  mutable ops : Command.op list;  (* sent ops, newest first, if recorded *)
}

exception Io_error

let now = Spans.now_ns

let connect_member t i =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.ports.(i)));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Cluster.write_all fd (Wire.to_bytes (Wire.Hello { sender = -1 }));
    t.fd <- Some fd;
    t.member <- i;
    t.in_len <- 0;
    true
  with Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    false

let create ?(record_ops = false) ~spans ~ports ~member ~check () =
  let t =
    {
      ports;
      member;
      fd = None;
      inbuf = Bytes.create 65536;
      in_len = 0;
      out = Buffer.create 65536;
      burst_first = 0;
      pending = Hashtbl.create 4096;
      next_seq = 0;
      next_rid = 0;
      check;
      spans;
      k_request = Spans.kind spans "request";
      k_encode = Spans.kind spans "wire.encode";
      k_write = Spans.kind spans "sock.write";
      k_decode = Spans.kind spans "wire.decode";
      done_ns = col ();
      lat_ns = col ();
      oks = col ();
      steps = col ();
      rids = col ();
      lags = col ();
      lag_steps = col ();
      sent = 0;
      completed = 0;
      failed = 0;
      refused = 0;
      resent = 0;
      reconnects = 0;
      late = 0;
      inflight_max = 0;
      phase_done = 0;
      record_ops;
      ops = [];
    }
  in
  (* a replica outside the first quorum may still be starting up *)
  let deadline = now () + 10_000_000_000 in
  while not (connect_member t member) do
    if now () > deadline then
      failwith (Printf.sprintf "generator: cannot connect to replica %d" member);
    Unix.sleepf 0.005
  done;
  t

let close t =
  match t.fd with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.fd <- None
  | None -> ()

let finish t req ~at ~ok =
  let lat, _ =
    Stats.open_loop_latency ~due:req.due ~sent:req.sent_at ~completed:at
  in
  push t.done_ns at;
  push t.lat_ns lat;
  push t.oks (if ok then 1 else 0);
  push t.steps req.step;
  push t.rids req.rid;
  t.phase_done <- t.phase_done + 1

let encode t req =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if Buffer.length t.out = 0 then t.burst_first <- req.rid;
  let t0 = if Spans.enabled t.spans then now () else 0 in
  Wire.encode t.out (Wire.Request { seq; cmd = Command.make ~id:0 req.op });
  if Spans.enabled t.spans then
    Spans.record t.spans ~kind:t.k_encode ~id:req.rid ~parent:t.k_request
      ~start:t0 ~stop:(now ());
  Hashtbl.replace t.pending seq req;
  let inflight = Hashtbl.length t.pending in
  if inflight > t.inflight_max then t.inflight_max <- inflight

let flush_out t =
  if Buffer.length t.out > 0 then begin
    let bytes = Buffer.to_bytes t.out in
    Buffer.clear t.out;
    match t.fd with
    | None -> raise Io_error
    | Some fd -> (
        let t0 = if Spans.enabled t.spans then now () else 0 in
        match Cluster.write_all fd bytes with
        | () ->
            if Spans.enabled t.spans then
              Spans.record t.spans ~kind:t.k_write ~id:t.burst_first
                ~parent:t.k_request ~start:t0 ~stop:(now ())
        | exception Unix.Unix_error _ -> raise Io_error)
  end

(* Reconnect to the next replica that accepts, then resubmit every
   outstanding request (oldest first) on the new connection. *)
let rec reconnect t =
  close t;
  Buffer.clear t.out;
  t.reconnects <- t.reconnects + 1;
  let n = Array.length t.ports in
  let deadline = now () + 10_000_000_000 in
  let rec attempt k =
    if connect_member t ((t.member + 1 + k) mod n) then ()
    else if now () > deadline then
      failwith "generator: no replica accepts connections"
    else begin
      if k mod n = n - 1 then Unix.sleepf 0.005;
      attempt (k + 1)
    end
  in
  attempt 0;
  let stuck =
    Hashtbl.fold (fun _ req acc -> req :: acc) t.pending []
    |> List.sort (fun a b -> Int.compare a.rid b.rid)
  in
  Hashtbl.reset t.pending;
  t.resent <- t.resent + List.length stuck;
  List.iter (encode t) stuck;
  try flush_out t with Io_error -> reconnect t

let flush t = try flush_out t with Io_error -> reconnect t

let on_frame t = function
  | Wire.Response { seq; reply } -> (
      match Hashtbl.find_opt t.pending seq with
      | None -> None
      | Some req ->
          Hashtbl.remove t.pending seq;
          let at = now () in
          let ok = t.check req reply in
          if ok then t.completed <- t.completed + 1
          else begin
            t.failed <- t.failed + 1;
            t.refused <- t.refused + 1;
            if t.refused = 1 then
              Printf.eprintf "generator: request %d failed: %s\n%!" req.rid
                (match reply with
                | Wire.R_error e -> "error " ^ e
                | Wire.R_redirect { leader } -> Printf.sprintf "redirect to %d" leader
                | Wire.R_stored -> "stored"
                | Wire.R_value _ -> "value"
                | Wire.R_cas _ -> "cas")
          end;
          finish t req ~at ~ok;
          if Spans.enabled t.spans then
            Spans.record t.spans ~kind:t.k_request ~id:req.rid ~parent:(-1)
              ~start:req.due ~stop:at;
          Some req.rid)
  | Wire.Hello _ | Wire.Peer _ | Wire.Request _ -> None

let read_frames t fd =
  let cap = Bytes.length t.inbuf in
  if cap - t.in_len < 4096 then begin
    let bigger = Bytes.create (2 * cap) in
    Bytes.blit t.inbuf 0 bigger 0 t.in_len;
    t.inbuf <- bigger
  end;
  match Unix.read fd t.inbuf t.in_len (Bytes.length t.inbuf - t.in_len) with
  | 0 -> raise Io_error
  | k ->
      t.in_len <- t.in_len + k;
      let rec decode pos =
        let t0 = if Spans.enabled t.spans then now () else 0 in
        match Wire.decode t.inbuf ~pos ~avail:(t.in_len - pos) with
        | Ok (msg, used) ->
            let t1 = if Spans.enabled t.spans then now () else 0 in
            (match on_frame t msg with
            | Some rid when Spans.enabled t.spans ->
                Spans.record t.spans ~kind:t.k_decode ~id:rid
                  ~parent:t.k_request ~start:t0 ~stop:t1
            | Some _ | None -> ());
            decode (pos + used)
        | Error `Need_more -> pos
        | Error (`Error _) -> raise Io_error
      in
      let used = decode 0 in
      Bytes.blit t.inbuf used t.inbuf 0 (t.in_len - used);
      t.in_len <- t.in_len - used
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> raise Io_error

(* Wait up to [timeout_ns] for replies and handle every one buffered. *)
let receive t timeout_ns =
  match t.fd with
  | None -> reconnect t
  | Some fd -> (
      let timeout = Float.max 0. (float_of_int timeout_ns /. 1e9) in
      match Unix.select [ fd ] [] [] timeout with
      | [], _, _ -> ()
      | _ -> ( try read_frames t fd with Io_error -> reconnect t)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())

let send t req =
  let at = now () in
  req.sent_at <- at;
  let lag = at - req.due in
  push t.lags lag;
  push t.lag_steps req.step;
  if lag > 1_000_000 then t.late <- t.late + 1;
  t.sent <- t.sent + 1;
  if t.record_ops then t.ops <- req.op :: t.ops;
  encode t req

let fresh t ~op ~due ~step =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  { rid; op = op rid; due; step; sent_at = 0 }

(* Poisson arrivals at [rate] per second for [duration_ns]; [op rid]
   makes request [rid]'s command. *)
let open_loop t ~rng ~rate ~duration_ns ~step ~op =
  t.phase_done <- 0;
  let gap () =
    let u = Sim.Prng.float rng 1.0 in
    int_of_float (-.Float.log1p (-.u) /. rate *. 1e9)
  in
  let start = now () in
  let stop = start + duration_ns in
  let next_due = ref (start + gap ()) in
  let rec loop () =
    let at = now () in
    if at < stop then begin
      while !next_due <= at && !next_due < stop do
        send t (fresh t ~op ~due:!next_due ~step);
        next_due := !next_due + gap ()
      done;
      flush t;
      receive t (Stdlib.min (!next_due - now ()) 2_000_000);
      loop ()
    end
  in
  loop ()

(* Give outstanding requests until [deadline]; whatever is still
   unanswered then counts as failed. *)
let drain t ~deadline =
  while Hashtbl.length t.pending > 0 && now () < deadline do
    receive t 5_000_000
  done;
  let at = now () in
  Hashtbl.iter
    (fun _ req ->
      t.failed <- t.failed + 1;
      finish t req ~at ~ok:false)
    t.pending;
  Hashtbl.reset t.pending

(* Keep [pipeline] requests in flight until [count] are answered;
   returns the elapsed seconds. *)
let closed_loop t ~count ~pipeline ~step ~op ~deadline =
  t.phase_done <- 0;
  let start = now () in
  let issued = ref 0 in
  while t.phase_done < count && now () < deadline do
    while Hashtbl.length t.pending < pipeline && !issued < count do
      send t (fresh t ~op ~due:(now ()) ~step);
      incr issued
    done;
    flush t;
    receive t 50_000_000
  done;
  let elapsed = float_of_int (now () - start) /. 1e9 in
  drain t ~deadline:(now ());
  elapsed

(* Latencies (seconds) of every request of [step], failed ones with the
   time they waited. *)
let latencies t ~step =
  let out = ref [] in
  for i = t.lat_ns.n - 1 downto 0 do
    if t.steps.a.(i) = step then
      out := (float_of_int t.lat_ns.a.(i) /. 1e9) :: !out
  done;
  Stats.sorted (Array.of_list !out)

(* (completion time s, latency s) of every successful request whose
   completion lies in [from, until) ns, in completion order. *)
let samples t ~from ~until =
  let out = ref [] in
  for i = t.done_ns.n - 1 downto 0 do
    let at = t.done_ns.a.(i) in
    if at >= from && at < until && t.oks.a.(i) = 1 then
      out := (float_of_int at /. 1e9, float_of_int t.lat_ns.a.(i) /. 1e9) :: !out
  done;
  Array.of_list !out

let completions_between t ~from ~until =
  let k = ref 0 in
  for i = 0 to t.done_ns.n - 1 do
    let at = t.done_ns.a.(i) in
    if at >= from && at < until && t.oks.a.(i) = 1 then incr k
  done;
  !k

(* request numbers of every failed request *)
let failed_rids t =
  List.filter_map
    (fun i -> if t.oks.a.(i) = 0 then Some t.rids.a.(i) else None)
    (List.init t.oks.n Fun.id)

(* The newest request answered successfully after [since] (ns).  Called
   from the failover thread while the generator appends, so it reads a
   consistent prefix of each column. *)
let last_acked_after t ~since =
  let d = t.done_ns.a and k = t.oks.a and r = t.rids.a in
  let n =
    List.fold_left Stdlib.min t.done_ns.n
      [ Array.length d; Array.length k; Array.length r; t.oks.n; t.rids.n ]
  in
  let rec scan i =
    if i < 0 || d.(i) < since then None
    else if k.(i) = 1 then Some r.(i)
    else scan (i - 1)
  in
  scan (n - 1)

(* how late (ms) every request of [step] was sent *)
let lags_ms t ~step =
  let out = ref [] in
  for i = t.lags.n - 1 downto 0 do
    if t.lag_steps.a.(i) = step then
      out := (float_of_int t.lags.a.(i) /. 1e6) :: !out
  done;
  Stats.sorted (Array.of_list !out)
