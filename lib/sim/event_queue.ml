type 'a t = {
  cmp : 'a -> 'a -> int;
  capacity_hint : int;
  mutable data : 'a array;  (* [||] until the first add *)
  mutable size : int;
}

let create ?(capacity = 256) ~cmp () =
  { cmp; capacity_hint = Stdlib.max 1 capacity; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* The backing array cannot exist before we have a value of type ['a] to
   fill it with, so it is created (and later grown) using the element
   being inserted as the filler. *)
let ensure_room t x =
  let cap = Array.length t.data in
  if t.size >= cap then
    let data = Array.make (Stdlib.max t.capacity_hint (2 * cap)) x in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data

let add t x =
  ensure_room t x;
  (* Sift up: walk the hole from the end toward the root. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if t.cmp x t.data.(parent) < 0 then begin
      t.data.(!i) <- t.data.(parent);
      i := parent
    end
    else continue := false
  done;
  t.data.(!i) <- x

let peek_min t = if t.size = 0 then None else Some t.data.(0)

let sift_down t x =
  (* Place [x] starting from the root; the slot at the end was vacated. *)
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= t.size then continue := false
    else begin
      let r = l + 1 in
      let smallest =
        if r < t.size && t.cmp t.data.(r) t.data.(l) < 0 then r else l
      in
      if t.cmp t.data.(smallest) x < 0 then begin
        t.data.(!i) <- t.data.(smallest);
        i := smallest
      end
      else continue := false
    end
  done;
  t.data.(!i) <- x

let pop_min t =
  if t.size = 0 then None
  else begin
    let min = t.data.(0) in
    t.size <- t.size - 1;
    let last = t.data.(t.size) in
    (* The slot past [size] keeps a stale reference to [last], which the
       heap still holds elsewhere — no extra retention. *)
    if t.size > 0 then sift_down t last else t.data.(0) <- last;
    Some min
  end
