(** Discrete-event simulation engine.

    The engine runs one consensus protocol over one {!Scenario.t}.  It is
    polymorphic in the protocol's message and state types: a protocol is
    a record of pure-ish transition functions that receive a context
    handle ([ctx]) through which they send messages, set timers, persist
    state and announce decisions.  Handlers execute atomically at an
    instant of virtual time — processing cost is absorbed into message
    delay, exactly as in the paper's model.

    Determinism: executions are a pure function of the scenario.  All
    randomness flows from the scenario seed; simultaneous events are
    ordered by a monotone sequence number.

    Faults: a crash erases volatile state and invalidates pending timers;
    stable storage (written via {!persist}) survives.  A restart calls
    the protocol's [on_restart] with the last persisted state. *)

(** The context handle is the capability record of {!Runtime}; it is
    abstract to protocols, which use the wrappers below.  Other executors
    (e.g. the wall-clock host in [lib/realtime]) construct their own
    {!Runtime.ctx} and run the very same protocol records. *)
type ('msg, 'state) ctx = ('msg, 'state) Runtime.ctx

type ('msg, 'state) protocol = ('msg, 'state) Runtime.protocol = {
  name : string;
  on_boot : ('msg, 'state) ctx -> 'state;
      (** Called once per process at time 0 (if initially up). May send
          and set timers. *)
  on_message : ('msg, 'state) ctx -> 'state -> src:int -> 'msg -> 'state;
  on_timer : ('msg, 'state) ctx -> 'state -> tag:int -> 'state;
  on_restart : ('msg, 'state) ctx -> persisted:'state option -> 'state;
      (** Called when a crashed process restarts; [persisted] is the last
          value written via {!persist}, if any. *)
  msg_payload : 'msg -> Trace.payload;
      (** structured trace payload for a wire message *)
}

(** {2 Context operations available to protocol handlers} *)

(** This process's id. *)
val self : ('msg, 'state) ctx -> int

(** Number of processes. *)
val n_processes : ('msg, 'state) ctx -> int

(** This process's initial proposal value. *)
val proposal : ('msg, 'state) ctx -> int

(** Local-clock reading (drifts with rate error rho). Protocols must only
    ever look at this clock; global time is not observable. *)
val local_time : ('msg, 'state) ctx -> float

(** Send a message to one process (possibly self). Delivery is decided by
    the scenario's network policy. *)
val send : ('msg, 'state) ctx -> dst:int -> 'msg -> unit

(** Send to every process, including self. *)
val broadcast : ('msg, 'state) ctx -> 'msg -> unit

(** [set_timer ctx ~local_delay ~tag] schedules an [on_timer] callback
    after [local_delay] seconds of {e local} clock time.  There is no
    cancellation: protocols disambiguate stale timers with the [tag]
    (e.g. tag = session number). *)
val set_timer : ('msg, 'state) ctx -> local_delay:float -> tag:int -> unit

(** Write to stable storage (survives crashes). *)
val persist : ('msg, 'state) ctx -> 'state -> unit

(** Announce a decision. Only the first decision of each process is
    recorded; repeated calls are no-ops. *)
val decide : ('msg, 'state) ctx -> int -> unit

(** Whether this process has already decided in this run. *)
val has_decided : ('msg, 'state) ctx -> bool

(** Per-process deterministic randomness (for protocols that need it). *)
val rng : ('msg, 'state) ctx -> Prng.t

(** Per-process reusable workspace for handler-local temporaries (never
    for protocol state); see {!Scratch}. *)
val scratch : ('msg, 'state) ctx -> Scratch.t

(** Global (real) time of the current event.  {b Not for protocol
    logic} — processes cannot observe real time in the model.  This
    exists solely so that external oracles the paper {e assumes} (the
    leader-election service of Section 2) can be modelled as functions of
    real time. *)
val oracle_time : ('msg, 'state) ctx -> Sim_time.t

(** Free-text trace annotation (no-op when tracing is off). *)
val note : ('msg, 'state) ctx -> string -> unit

(** Bump a named protocol counter (attributed to this process) in the
    run's metrics {!Registry}. *)
val count : ('msg, 'state) ctx -> string -> unit

(** {2 Running} *)

type 'state run_result = {
  scenario : Scenario.t;
  protocol_name : string;
  decision_times : Sim_time.t option array;  (** indexed by process *)
  decision_values : int option array;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  end_time : Sim_time.t;
  events_processed : int;
  trace : Trace.t;
  metrics : Registry.t;
      (** per-run counters and histograms: ["runs"], ["msgs_sent"],
          ["msgs_delivered"], ["msgs_dropped"], ["decisions"], the
          ["decision_latency_delta"] histogram ((t - TS)/delta), plus any
          protocol counters bumped via {!count} *)
  agreement_violation : (int * int * int * int) option;
      (** [(p1, v1, p2, v2)] if two processes decided differently *)
  final_states : 'state option array;
      (** [None] for processes down at the end *)
}

(** [run scenario protocol] executes to completion (all-decided, empty
    queue, or horizon).

    [injections] are messages placed directly into the network at setup:
    [(deliver_at, src, dst, msg)].  They model messages "sent before TS
    by processes that have since failed" — the obsolete messages of the
    paper — without simulating the execution that produced them.

    Raises [Invalid_argument] if the scenario fails {!Scenario.validate}. *)
val run :
  ?injections:(Sim_time.t * int * int * 'msg) list ->
  Scenario.t ->
  ('msg, 'state) protocol ->
  'state run_result

(** {2 Result helpers} *)

(** All recorded decisions as [(proc, time, value)], ordered by process. *)
val decisions : 'state run_result -> (int * Sim_time.t * int) list

(** Latest decision time among [procs] (default: all processes that
    decided). [None] if some process in [procs] did not decide. *)
val last_decision_time :
  ?procs:int list -> 'state run_result -> Sim_time.t option

(** [true] when every process in [procs] decided and all values agree. *)
val all_decided : ?procs:int list -> 'state run_result -> bool
