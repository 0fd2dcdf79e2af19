(** The capability record protocols run against.

    {!Engine} (the discrete-event simulator) and the other executors
    (the wall-clock [Realtime.Host] and the socket replica [Smr.Replica]) give
    protocols the same handle: a record of closures for sending, timing,
    persistence and deciding.  Protocol code never constructs one of
    these — it receives them from its executor and calls them through
    the convenience wrappers in {!Engine} — but executors do, which is
    why the record is public here. *)

type ('msg, 'state) ctx = {
  self : int;  (** this process's id, [0 .. n-1] *)
  n : int;  (** number of processes *)
  proposal : int;  (** this process's initial proposal value *)
  local_time : unit -> float;
      (** the process's own (possibly drifting) clock *)
  send : dst:int -> 'msg -> unit;
  broadcast : 'msg -> unit;  (** to every process, including self *)
  set_timer : local_delay:float -> tag:int -> unit;
  persist : 'state -> unit;  (** stable storage, survives crashes *)
  decide : int -> unit;
  has_decided : unit -> bool;
  rng : Prng.t;  (** per-process deterministic randomness *)
  scratch : Scratch.t;
      (** reusable per-process workspace for handler-local temporaries;
          see {!Scratch} for the aliasing rules *)
  note : string -> unit;  (** trace annotation; may be a no-op *)
  count : string -> unit;
      (** bump a named protocol counter in the run's metrics
          {!Registry} (attributed to [self]); may be a no-op *)
  oracle_time : unit -> Sim_time.t;
      (** real time — for modelling external oracles only, never for
          protocol logic *)
}

(** The protocol record all executors accept. *)
type ('msg, 'state) protocol = {
  name : string;
  on_boot : ('msg, 'state) ctx -> 'state;
  on_message : ('msg, 'state) ctx -> 'state -> src:int -> 'msg -> 'state;
  on_timer : ('msg, 'state) ctx -> 'state -> tag:int -> 'state;
  on_restart : ('msg, 'state) ctx -> persisted:'state option -> 'state;
  msg_payload : 'msg -> Trace.payload;
      (** structured trace payload for a wire message (kind, ballot,
          session, phase, round, value as applicable) *)
}
