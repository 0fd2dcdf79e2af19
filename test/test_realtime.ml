(* The wall-clock host runs the very same scenarios and protocol records
   as the simulator.  Wall-clock timing is inherently noisy, so these
   tests check safety exactly and liveness with generous margins. *)

let scenario ?(n = 3) ?(ts = 0.15) ?(horizon = 3.0) ?(faults = Sim.Fault.none)
    () =
  Sim.Scenario.make ~name:"realtime" ~n ~ts ~delta:0.02 ~seed:7L ~horizon
    ~network:(Sim.Network.eventually_synchronous ~pre_loss:1.0 ())
    ~faults ~record_trace:true ()

let paxos (sc : Sim.Scenario.t) =
  Dgl.Modified_paxos.protocol (Dgl.Config.make ~n:sc.n ~delta:sc.delta ())

let check_consensus ~what r =
  Alcotest.(check bool) (what ^ ": all decided, agreeing") true
    (Sim.Engine.all_decided r);
  (* the wall-clock trace satisfies the same trace invariants the
     simulator's traces do (no timer bounds: real scheduling jitters);
     with proposals from the scenario this includes validity *)
  let report = Harness.Invariants.check_run r in
  Alcotest.(check bool)
    (Format.asprintf "%s: trace invariants: %a" what Harness.Invariants.pp
       report)
    true
    (Harness.Invariants.ok report)

let test_modified_paxos_realtime () =
  let sc = scenario () in
  let r = Realtime.Host.run sc (paxos sc) in
  check_consensus ~what:"modified paxos" r;
  (* messages were silenced before ts, so decisions come after it *)
  List.iter
    (fun (_, t, _) ->
      Alcotest.(check bool) "decided after ts" true (t >= sc.ts))
    (Sim.Engine.decisions r);
  Alcotest.(check bool) "trace non-empty" true (Sim.Trace.length r.trace > 0);
  Alcotest.(check int) "metrics runs counter" 1
    (Sim.Registry.counter_total r.metrics "runs")

let test_b_consensus_realtime () =
  let sc = scenario () in
  let r =
    Realtime.Host.run sc
      (Bconsensus.Modified_b_consensus.protocol ~n:sc.n ~delta:sc.delta
         ~rho:0. ())
  in
  check_consensus ~what:"b-consensus" r

let test_stable_from_start_is_fast () =
  (* with ts = 0 the protocol should finish long before the horizon *)
  let sc = scenario ~ts:0. () in
  let r = Realtime.Host.run sc (paxos sc) in
  check_consensus ~what:"stable start" r;
  Alcotest.(check bool) "well under the horizon" true (r.end_time < 2.0)

let test_smr_over_threads () =
  (* the most complex protocol record in the repository, on the wall
     clock: replicated logs must converge *)
  let sc = scenario ~ts:0.1 ~horizon:4.0 () in
  let workloads =
    Array.init sc.n (fun p ->
        if p <> 1 then []
        else
          List.init 3 (fun k ->
              ( 0.15 +. (0.1 *. float_of_int k),
                Smr.Command.make ~id:k (Smr.Command.Add (k + 1)) )))
  in
  let r =
    Realtime.Host.run sc
      (Smr.Multi_paxos.protocol
         (Dgl.Config.make ~n:sc.n ~delta:sc.delta ())
         ~workloads)
  in
  Alcotest.(check bool) "every log converged, none diverged" true
    (Sim.Engine.all_decided r)

let test_crash_restart_over_threads () =
  (* a process crashes mid-chaos and restarts after stabilization: it
     must rebuild from stable storage and still decide *)
  let sc =
    scenario ~horizon:4.0
      ~faults:(Sim.Fault.crash_then_restart ~crash_at:0.05 ~restart_at:0.4 2)
      ()
  in
  let r = Realtime.Host.run sc (paxos sc) in
  check_consensus ~what:"crash+restart" r;
  match r.decision_times.(2) with
  | Some t ->
      Alcotest.(check bool) "restarted process decided after its restart"
        true (t >= 0.4)
  | None -> Alcotest.fail "restarted process never decided"

(* One scenario value, two runtimes: the simulator and the wall-clock
   host must both reach agreement on it with a clean trace. *)
let test_one_scenario_both_runtimes () =
  let sc = scenario () in
  check_consensus ~what:"engine" (Sim.Engine.run sc (paxos sc));
  check_consensus ~what:"host" (Realtime.Host.run sc (paxos sc))

let test_config_validation () =
  let sc = scenario () in
  let proto = paxos sc in
  let rejects bad =
    match Realtime.Host.run bad proto with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "rho > 0" true (rejects { sc with rho = 0.01 });
  Alcotest.(check bool) "n=0" true
    (rejects { sc with n = 0; proposals = [||] });
  Alcotest.(check bool) "proposal arity" true
    (rejects { sc with proposals = [| 1 |] });
  Alcotest.(check bool) "bad fault process" true
    (rejects
       { sc with faults = Sim.Fault.make [ Sim.Fault.crash ~at:0.1 99 ] })

let suite =
  [
    Alcotest.test_case "modified paxos over threads" `Slow
      test_modified_paxos_realtime;
    Alcotest.test_case "b-consensus over threads" `Slow
      test_b_consensus_realtime;
    Alcotest.test_case "stable start is fast" `Slow
      test_stable_from_start_is_fast;
    Alcotest.test_case "smr over threads" `Slow test_smr_over_threads;
    Alcotest.test_case "crash+restart over threads" `Slow
      test_crash_restart_over_threads;
    Alcotest.test_case "one scenario, both runtimes" `Slow
      test_one_scenario_both_runtimes;
    Alcotest.test_case "config validation" `Quick test_config_validation;
  ]
