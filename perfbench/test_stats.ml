(* Tests for the benchmark's own statistics. *)

open Perfbench

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let percentile_rule () =
  let check = Alcotest.(check (option (float 0.))) in
  (* p99 of 1000 samples: rank 990, ten samples beyond *)
  check "p99 of 1000" (Some 990.) (Stats.percentile (ramp 1000) 0.99);
  check "p99 of 999 has nine beyond" None (Stats.percentile (ramp 999) 0.99);
  check "median of 20" (Some 10.) (Stats.percentile (ramp 20) 0.5);
  check "median of 19 has nine beyond" None (Stats.percentile (ramp 19) 0.5);
  check "empty" None (Stats.percentile [||] 0.5);
  (* failures sort last and never become the reported percentile while
     ten or more samples lie beyond it *)
  let with_failures =
    Stats.sorted (Array.append (ramp 990) (Array.make 10 Float.infinity))
  in
  check "failures beyond p99" (Some 990.) (Stats.percentile with_failures 0.99)

let median_of_repeats () =
  Alcotest.(check (float 0.)) "odd" 2. (Stats.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 0.)) "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |])

(* Ten requests due 1 ms apart; the sender stalls until 5 ms and then
   sends everything due, each reply arriving 1 ms after its send. Timed
   from the due time the stall shows; timed from the send it would not. *)
let latency_from_due () =
  let ms = 1_000_000 in
  let lat =
    List.init 10 (fun i ->
        let due = i * ms in
        let sent = Stdlib.max due (5 * ms) in
        let latency, lag =
          Stats.open_loop_latency ~due ~sent ~completed:(sent + ms)
        in
        Alcotest.(check int) "lag" (sent - due) lag;
        float_of_int latency /. float_of_int ms)
  in
  Alcotest.(check (list (float 0.)))
    "latency from due" [ 6.; 5.; 4.; 3.; 2.; 1.; 1.; 1.; 1.; 1. ] lat

(* completions every millisecond over [0, 10 s), with a gap after a kill *)
let trace ~gap_from ~gap_to =
  Array.init 10_000 (fun i -> float_of_int i /. 1000.)
  |> Array.to_list
  |> List.filter (fun t -> t < gap_from || t >= gap_to)
  |> List.map (fun t -> (t, 0.001))
  |> Array.of_list

let outage () =
  let bound = 0.405 in
  let v =
    Stats.cycle_outage ~bound ~kill:5.0 ~until:10.0
      (trace ~gap_from:5.0 ~gap_to:5.2)
  in
  Alcotest.(check (float 1e-9)) "stall is the gap" 0.201 v.Smr.Recovery.stall;
  Alcotest.(check bool) "within the bound" true (Smr.Recovery.ok v);
  let long =
    Stats.cycle_outage ~bound ~kill:5.0 ~until:10.0
      (trace ~gap_from:5.0 ~gap_to:7.0)
  in
  Alcotest.(check bool) "a 2 s outage breaks the bound" false
    (Smr.Recovery.ok long);
  (* the cycle ends at [until]: a later gap belongs to the next cycle *)
  let next =
    Stats.cycle_outage ~bound ~kill:2.0 ~until:5.0
      (trace ~gap_from:5.0 ~gap_to:7.0)
  in
  Alcotest.(check bool) "later gap excluded" true
    (next.Smr.Recovery.stall < 0.01)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile needs ten beyond" `Quick
            percentile_rule;
          Alcotest.test_case "median of repeats" `Quick median_of_repeats;
          Alcotest.test_case "latency timed from due" `Quick latency_from_due;
          Alcotest.test_case "outage from completion traces" `Quick outage;
        ] );
    ]
