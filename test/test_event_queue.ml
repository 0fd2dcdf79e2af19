(* The binary heap behind Netio's timers must drain in (time, seq)
   order, including time ties.  The model is a stable sort of the same
   elements, as in the packed-queue tests. *)

let cmp (t1, s1) (t2, s2) =
  let c = compare (t1 : float) t2 in
  if c <> 0 then c else compare (s1 : int) s2

let model evs = List.stable_sort cmp evs

let of_list ?capacity ~cmp xs =
  let q = Sim.Event_queue.create ?capacity ~cmp () in
  List.iter (Sim.Event_queue.add q) xs;
  q

let drain q =
  let rec go acc =
    match Sim.Event_queue.pop_min q with
    | None -> List.rev acc
    | Some x -> go (x :: acc)
  in
  go []

let test_empty () =
  let q = Sim.Event_queue.create ~cmp:compare () in
  Alcotest.(check bool) "is_empty" true (Sim.Event_queue.is_empty q);
  Alcotest.(check int) "length" 0 (Sim.Event_queue.length q);
  Alcotest.(check (option int)) "peek" None (Sim.Event_queue.peek_min q);
  Alcotest.(check (option int)) "pop" None (Sim.Event_queue.pop_min q)

let test_basic_order () =
  let q = of_list ~cmp:compare [ 5; 3; 9; 1; 7; 3; 0; -2 ] in
  Alcotest.(check int) "length" 8 (Sim.Event_queue.length q);
  Alcotest.(check (option int)) "peek" (Some (-2)) (Sim.Event_queue.peek_min q);
  Alcotest.(check (list int)) "sorted" [ -2; 0; 1; 3; 3; 5; 7; 9 ] (drain q);
  Alcotest.(check bool) "drained" true (Sim.Event_queue.is_empty q)

let test_grows_from_tiny_capacity () =
  let q =
    of_list ~capacity:1 ~cmp:compare (List.init 1000 (fun i -> 999 - i))
  in
  Alcotest.(check int) "length" 1000 (Sim.Event_queue.length q);
  Alcotest.(check (list int))
    "sorted after growth" (List.init 1000 Fun.id) (drain q)

let test_ties_resolved_by_seq () =
  let q = of_list ~cmp [ (1.0, 0); (1.0, 1); (0.5, 2); (1.0, 3) ] in
  Alcotest.(check (list (pair (float 0.) int)))
    "fifo among equal times"
    [ (0.5, 2); (1.0, 0); (1.0, 1); (1.0, 3) ]
    (drain q)

(* Workload generator biased toward time collisions: times are drawn from
   a small pool, seq is the element's index (unique), mirroring how Netio
   numbers its timers. *)
let workload =
  QCheck.Gen.(
    list (int_bound 15) >|= fun times ->
    List.mapi (fun i t -> (float_of_int t /. 4., i)) times)

let arbitrary_workload =
  QCheck.make workload
    ~print:(fun evs ->
      String.concat ";"
        (List.map (fun (t, s) -> Printf.sprintf "(%g,%d)" t s) evs))

let prop_drains_like_model =
  QCheck.Test.make ~name:"drains in sorted-model order" ~count:500
    arbitrary_workload (fun evs -> drain (of_list ~cmp evs) = model evs)

let prop_interleaved_matches_model =
  (* Random add/pop interleavings: heap and model must agree on every
     pop, not just on full drains. *)
  QCheck.Test.make ~name:"interleaved add/pop matches sorted model"
    ~count:300
    QCheck.(list (pair bool (int_bound 15)))
    (fun ops ->
      let q = Sim.Event_queue.create ~cmp () in
      let pending = ref [] and seq = ref 0 in
      List.for_all
        (fun (is_add, t) ->
          if is_add then begin
            let ev = (float_of_int t /. 4., !seq) in
            incr seq;
            Sim.Event_queue.add q ev;
            pending := model (ev :: !pending);
            true
          end
          else
            match (Sim.Event_queue.pop_min q, !pending) with
            | None, [] -> true
            | Some x, y :: rest ->
                pending := rest;
                x = y
            | Some _, [] | None, _ :: _ -> false)
        ops)

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "basic order" `Quick test_basic_order;
    Alcotest.test_case "grows in place" `Quick test_grows_from_tiny_capacity;
    Alcotest.test_case "seq tie-break" `Quick test_ties_resolved_by_seq;
    QCheck_alcotest.to_alcotest prop_drains_like_model;
    QCheck_alcotest.to_alcotest prop_interleaved_matches_model;
  ]
