(** State machine replication over the modified Paxos algorithm.

    The paper's "Reducing Message Complexity" discussion is about systems
    that run {e a sequence of instances} of consensus: phase 1 can be
    executed once, in advance, for all instances, after which a stable
    leader commits each client command with a single phase-2 round —
    "all nonfaulty processes decide within 3 message delays" (forward to
    the leader, 2a, 2b).  This module realizes that design on top of the
    session-gated ballot machinery of {!Dgl}:

    - ballots and sessions are global (one Start Phase 1 action, one
      session timer, one majority-heard gate — identical to
      {!Dgl.Modified_paxos});
    - phase 1b messages report the sender's accepted votes for {e all}
      unchosen instances (chosen instances are reported as votes with an
      infinite ballot so a new leader can never contradict them);
    - a leader whose phase 1 completed assigns each new command to the
      next free instance and broadcasts a single 2a; followers forward
      client commands to the current ballot owner;
    - gaps left by leader changes are filled with [Noop]s, and replicas
      exchange [Chosen] entries so restarted processes catch up;
    - command ids make re-proposed commands idempotent: the state machine
      applies the first occurrence only.

    A process "decides" (in the engine's single-shot sense) when its
    contiguous chosen prefix contains every workload command; the decided
    value is an order-sensitive checksum of the applied command sequence,
    so the engine's agreement check doubles as a replicated-log
    divergence detector. *)

open Consensus

type state

(** [protocol cfg ~workloads] builds the engine protocol.

    [workloads.(p)] is process [p]'s submission schedule: commands paired
    with the local-clock time at which the client hands them to [p]
    (sorted ascending).  Command ids must be unique across the whole
    workload; raises [Invalid_argument] otherwise. *)
val protocol :
  ?progress_gate:bool ->
  Dgl.Config.t ->
  workloads:(float * Command.t) list array ->
  (Smr_messages.t, state) Sim.Engine.protocol
(** [progress_gate] (default true): Start Phase 1 fires only when there
    is outstanding work and nothing was chosen since the session timer
    was armed — the paper's "same behavior as normal Paxos in the stable
    case".  Disabling it (the A4 ablation) makes leadership churn every
    session timeout even in a healthy system. *)

(** {2 Accessors for tests and experiments} *)

val mbal : state -> Ballot.t

val session_number : state -> int

val leading : state -> bool

(** Length of the contiguous chosen prefix. *)
val chosen_upto : state -> int

(** The contiguous chosen prefix, oldest first. *)
val log_prefix : state -> Command.t list

(** The commands actually applied (first occurrences of non-noop
    commands in prefix order). *)
val applied : state -> Command.t list

(** Register value after applying {!applied} to 0. *)
val register : state -> int

val pending_count : state -> int

(** Live 2b tallies, one per (instance, ballot) still being counted.
    Tallies of an instance are dropped once it is chosen, so this stays
    at the in-flight size however long the log grows. *)
val tally_count : state -> int

(** [chosen_at st i] — the command chosen at instance [i], if any (not
    limited to the contiguous prefix).  The socket replica uses it to
    apply instances incrementally as [chosen_upto] advances. *)
val chosen_at : state -> int -> Command.t option

(** {2 Durable essence (socket replica restart)}

    What a real process must carry across a crash is exactly what its
    phase-1b message reports: the highest ballot heard, its accepted
    votes, and the chosen log (folded in as infinite-ballot votes, the
    same convention the live protocol uses).  {!essence} extracts that
    triple; {!restore} rebuilds a working state from it on a fresh
    process, re-arms the session and resend timers, and broadcasts a
    [Chosen_digest] so peers backfill whatever was chosen after the
    snapshot was taken. *)

type essence = {
  e_mbal : Ballot.t;
  e_votes : (int * Smr_messages.ivote) list;
  e_chosen_upto : int;
}

val essence : state -> essence

val restore :
  ?progress_gate:bool ->
  Dgl.Config.t ->
  (Smr_messages.t, state) Sim.Runtime.ctx ->
  essence ->
  state

(**/**)

module Private : sig
  (** Test hooks — not part of the public surface. *)

  val with_inflight :
    state ->
    proposed:(int * Command.t) list ->
    pending:Command.t list ->
    progress_mark:int ->
    state
  (** Replace the leader's in-flight proposals, the pending queue and
      the session timer's progress mark, so tests can build states that
      transitions reach only after long runs. *)
end
