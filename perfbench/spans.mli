(** In-memory spans for the traced run.

    A span is [(id, name, parent, start, stop)]: every span of one
    request carries that request's id, and [parent] names the span kind
    that caused it ([-1] for a root).  Spans are recorded around the
    benchmark's own calls into the program's modules, kept in growable
    arrays, and written out once at the end.  A disabled store records
    nothing, so the untraced runs pay one branch per call site. *)

type t

val create : enabled:bool -> t

val enabled : t -> bool

val now_ns : unit -> int
(** Monotonic clock, nanoseconds. *)

val kind : t -> string -> int
(** Intern a span name. *)

val record : t -> kind:int -> id:int -> parent:int -> start:int -> stop:int -> unit

val count : t -> int

val durations : t -> int -> float array
(** Durations (ns) of every span of one kind, in record order. *)

val write : t -> string -> unit
(** One tab-separated line per span: id, name, parent name, start ns,
    duration ns. *)
