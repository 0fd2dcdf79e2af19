(** Serializable fault-injection scenarios.

    A fuzz scenario is the fully declarative counterpart of
    {!Sim.Scenario.t}: where the engine scenario holds a compiled
    network closure, this one holds a {!Sim.Network_spec.t}; where the
    harness passes typed in-flight injections to {!Sim.Engine.run}, this
    one holds their protocol-independent description.  The result is a
    plain data term with a lossless JSON form — the unit the fuzzer
    generates, delta-debugs, persists to the regression corpus, and
    replays. *)

(** Which implementation the scenario runs.  [Ungated_paxos] is modified
    Paxos with condition (ii) of Start Phase 1 dropped (the A1 ablation)
    — an intentionally broken variant kept as a fuzzer target: campaigns
    against it must find the obsolete-ballot liveness attack. *)
type protocol =
  | Modified_paxos
  | Ungated_paxos
  | Traditional_paxos
  | Rotating_coordinator
  | B_consensus

val protocol_name : protocol -> string

(** Inverse of {!protocol_name} (case-insensitive). *)
val protocol_of_name : string -> protocol option

(** All five, in declaration order. *)
val protocols : protocol list

(** An obsolete message placed directly into the network: a phase 1a of
    session [session] owned by [src] (ballot [session * n + src]),
    delivered to [dst] at instant [at] — the paper's "message sent
    before [TS] by a process that has since failed", without simulating
    the execution that produced it.  Compiled per protocol:
    {!Dgl.Messages.P1a} for the (un)gated modified algorithm,
    {!Baselines.Paxos_messages.P1a} for traditional Paxos.  The
    round-based protocols take no injections. *)
type injection = { at : float; src : int; dst : int; session : int }

(** A protocol built for one engine scenario, its message type hidden.
    The five protocols exchange five different message types, so a
    function returning any of them needs an existential: the caller
    unpacks it and hands [protocol] and [injections] (already compiled
    to that message type) to {!Sim.Engine.run} or
    [Realtime.Host.run].  [timer_bounds] is [Some (delta, sigma)] for
    the modified-Paxos family, whose session timers
    {!Invariants.check_run} bounds; [None] otherwise. *)
type packed =
  | Packed : {
      protocol : ('msg, 'state) Sim.Runtime.protocol;
      injections : (float * int * int * 'msg) list;
      timer_bounds : (float * float) option;
    }
      -> packed

(** [instantiate p sc injections] builds protocol [p] for [sc]'s [n],
    [delta], [rho], [ts] and faults (the traditional-Paxos leader
    oracle follows the scenario's faults).  [?sigma] and [?epsilon]
    reach {!Dgl.Config.make} for the modified-Paxos family and are
    ignored otherwise.  This is the one place a protocol is chosen by
    name: the fuzzer and the CLI's [run], [sweep] and [realtime] all
    go through it.  Raises [Invalid_argument] when [injections] is
    non-empty for a protocol that takes none. *)
val instantiate :
  ?sigma:float ->
  ?epsilon:float ->
  protocol ->
  Sim.Scenario.t ->
  injection list ->
  packed

type t = {
  name : string;
  protocol : protocol;
  n : int;
  ts : float;
  delta : float;
  rho : float;
  seed : int64;
  horizon : float;
  network : Sim.Network_spec.t;
  faults : Sim.Fault.t;
  proposals : int array;
  injections : injection list;
}

(** The engine scenario this term describes ([record_trace] defaults to
    [true]: fuzzer runs are always checked through their trace). *)
val to_scenario : ?record_trace:bool -> t -> Sim.Scenario.t

(** Everything {!Sim.Scenario.validate} checks, plus: the network spec
    is well-formed, injection endpoints are in range with non-negative
    times and sessions, and the protocol accepts injections
    (round-based protocols take none). *)
val validate : t -> (unit, string) result

(** Number of discrete adversarial choices: injections, fault events,
    initially-down processes, network complexity, plus one for nonzero
    clock drift.  The shrinker minimizes this measure and never lets it
    grow. *)
val size : t -> int

val equal : t -> t -> bool

val to_json : t -> Sim.Json.t

val of_json : Sim.Json.t -> (t, string) result

(** One-line summary: protocol, n, network name, fault/injection
    counts. *)
val pp : Format.formatter -> t -> unit
