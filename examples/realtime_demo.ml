(* The same algorithm, off the simulator: real clocks, real delays.

     dune exec examples/realtime_demo.exe

   Every other example runs over the discrete-event simulator.  This one
   hands the identical scenario and Modified-Paxos protocol record to
   [Realtime.Host]: one event loop on the wall clock, delivering each
   message after a genuine delay drawn from the scenario's network
   (silent before ts, within delta after), with timers from the system
   clock.  The protocol code cannot tell the difference — it sees the
   same {!Sim.Runtime.ctx} capabilities. *)

let () =
  let n = 5 in
  let delta = 0.02 (* 20 ms *) in
  let ts = 0.25 (* network silent for the first 250 ms *) in
  let scenario =
    Sim.Scenario.make ~name:"realtime-demo" ~n ~ts ~delta ~seed:11L
      ~horizon:5.0
      ~network:(Sim.Network.eventually_synchronous ~pre_loss:1.0 ())
      ()
  in
  Format.printf
    "running modified Paxos on the wall clock: %d processes, delta = %.0f \
     ms, network silent for the first %.0f ms...@."
    n (delta *. 1000.) (ts *. 1000.);
  let r =
    Realtime.Host.run scenario
      (Dgl.Modified_paxos.protocol (Dgl.Config.make ~n ~delta ()))
  in
  List.iter
    (fun (p, t, v) ->
      Format.printf
        "  process %d decided %d at wall time %4.0f ms (%.1f delta after \
         stabilization)@."
        p v (t *. 1000.)
        ((t -. ts) /. delta))
    (Sim.Engine.decisions r);
  Format.printf "messages: %d sent, %d delivered, %d dropped pre-ts@."
    r.messages_sent r.messages_delivered r.messages_dropped;
  Format.printf "%s@."
    (if Sim.Engine.all_decided r then
       "all processes agree — same protocol, real time."
     else "NOT ALL PROCESSES DECIDED IN AGREEMENT")
