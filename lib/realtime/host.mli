(** The simulator's scenarios, run on wall-clock time.

    [run] is {!Sim.Engine.run} without injections: it takes the same
    {!Sim.Scenario.t} and the same protocol record and returns the same
    result type, but time is real.  Every process of the scenario lives
    on one single-threaded {!Netio} loop:

    - each send goes through the scenario's {!Sim.Network.t}; a copy
      count of [0] is a drop, and [k] copies are [k] delayed
      deliveries on the loop;
    - timers are loop timers, void once their process crashes;
    - the fault script (including [initially_down]) runs as timed
      crash/restart actions, and a restart rebuilds state from the
      last [persist];
    - the run ends at [horizon], when nothing is left to fire, or (with
      [stop_on_all_decided]) once every up process has decided and no
      fault is pending.

    Result times are wall-clock seconds from the start of the run.
    Traces honour [record_trace] and [trace_capacity]; metrics use the
    engine's counter names.  Wall-clock runs are not reproducible: the
    network draws are seeded, but handler timing carries scheduler
    jitter, so treat [delta] below a few milliseconds as unreliable.
    The host exists to show that the protocol layer is not bound to the
    simulator, not to replace it for experiments. *)

(** [run scenario protocol] blocks until the run ends.  Raises
    [Invalid_argument] if the scenario fails {!Sim.Scenario.validate},
    or if [rho <> 0.] (the wall clock is the only clock). *)
val run :
  Sim.Scenario.t ->
  ('msg, 'state) Sim.Runtime.protocol ->
  'state Sim.Engine.run_result
