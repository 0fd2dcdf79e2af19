(** Socket readiness and timers for the real-process cluster.

    A {!t} is a single-threaded [Unix.select] loop owning a set of
    nonblocking TCP connections, listeners, and one-shot closure
    timers.  Incoming bytes accumulate in a per-connection buffer that
    the [on_data] callback consumes incrementally via {!input}/{!consume}
    — the natural shape for {!Smr.Wire}-framed traffic.

    {b Write policy.}  {!send} only appends to the connection's output
    buffer; each {!step} then writes at most once per connection, so
    every frame one pass produces for a peer shares a [write].  A short
    write keeps the rest queued for the next pass.

    This module is part of [lib/realtime], the only layer permitted to
    read the wall clock (lint R1); code above it takes time from
    {!now}/{!wall}. *)

type t

type conn

val create : unit -> t
(** Also ignores [SIGPIPE] process-wide: a peer that vanishes must
    surface as a closed connection, not a fatal signal. *)

val wall : unit -> float
(** Wall-clock seconds since the epoch (for trace stamps). *)

val resolve : string -> Unix.inet_addr
(** Numeric IPv4 literal or hostname (first address).  Raises
    [Not_found] when the name does not resolve. *)

val now : t -> float
(** Seconds since [create] — the loop's time base; timers use it. *)

val set_limits : t -> ?partial_timeout:float -> ?max_input:int -> unit -> unit
(** Connection hardening.  [partial_timeout] closes a connection whose
    unconsumed input has sat in the buffer for longer than that many
    seconds — a peer that sends 11 of 12 header bytes and stalls (or
    drip-feeds without ever completing a frame: arrival of more bytes
    does {e not} reset the clock, only consuming everything does).
    [max_input] closes a connection whose unconsumed input grows past
    that many bytes.  Omitted arguments disable the corresponding
    check; both default to off.  Drops are counted as
    [netio_partial_timeouts] / [netio_input_overflows] when a registry
    is attached via {!set_registry}.  Raises [Invalid_argument] on a
    non-positive timeout or bound. *)

val set_registry : t -> Sim.Registry.t -> unit
(** Attach a metrics registry; the loop increments [netio_*] counters:
    [netio_writes] per [write] syscall, and [netio_partial_timeouts],
    [netio_input_overflows], [netio_accept_backoffs] as it drops
    connections or backs off a listener. *)

val listen :
  t -> host:string -> port:int -> on_accept:(conn -> unit) -> int
(** Bind and listen; returns the actual port (useful with [port:0]).
    Raises [Unix.Unix_error] if the bind fails. *)

val connect : t -> host:string -> port:int -> conn
(** Nonblocking connect.  The connection is usable immediately — writes
    buffer until the connect completes; a refused connect surfaces as
    [on_close]. *)

val set_callbacks :
  conn -> on_data:(conn -> unit) -> on_close:(conn -> unit) -> unit
(** [on_data] fires after new bytes were appended to the input buffer;
    [on_close] fires exactly once, on EOF, error, or {!close}. *)

val conn_id : conn -> int
(** Loop-unique id, for keying tables without physical equality. *)

val send : t -> conn -> Bytes.t -> unit
(** Append bytes to the connection's output buffer (copied; the caller
    may reuse [bytes]).  Never writes: the next {!step} does.  A no-op
    once the connection is closing. *)

val closing : conn -> bool
(** True once the connection has been closed (callbacks may race a
    close; check before continuing to consume input). *)

val input : conn -> Bytes.t * int * int
(** [(buf, pos, avail)] — the unconsumed input region.  Valid until the
    next loop iteration; decode from it, then {!consume}. *)

val consume : conn -> int -> unit
(** Discard [n] bytes from the front of the input region. *)

val close : t -> conn -> unit
(** Close now.  Queued output gets one best-effort nonblocking write
    first; whatever the socket does not take is dropped. *)

val after : t -> float -> (unit -> unit) -> unit
(** One-shot timer: run the closure [delay] seconds from now. *)

val every : t -> float -> (unit -> unit) -> unit
(** Periodic timer (re-arms itself after each firing). *)

val step : t -> float -> unit
(** One loop pass with the given timeout ceiling: fire due timers, write
    each connection's queued output (one [write] at most), [select],
    dispatch callbacks, fire the timers that came due meanwhile.  Their
    output goes out at the start of the next pass. *)

val run : t -> unit
(** [step] until {!stop}. *)

val stop : t -> unit
(** Stop {!run} from any thread or signal handler (self-pipe wakeup). *)

val shutdown : t -> unit
(** Close every connection, listener, and the wakeup pipe. *)

(**/**)

module Private : sig
  (** Test hooks — not part of the public surface. *)

  val sabotage_listeners : t -> unit
  (** Make every listener's accept fail persistently (ENOTSOCK) while
      its fd stays readable, reproducing the fd-exhaustion shape that
      triggers accept backoff. *)

  val paused_listeners : t -> int
  (** Number of listeners currently inside their backoff window. *)
end
