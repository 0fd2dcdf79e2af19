(** Mutable array-backed binary min-heap: the timer heap of
    [Realtime.Netio].

    Elements live in a flat array that grows in place (doubling), so
    steady-state churn allocates only the [Some] of {!peek_min} and
    {!pop_min}.  Binary heaps are not stable, so callers that need a
    deterministic order among equal keys must make the comparison
    total; Netio folds an arming sequence number into its [cmp], so
    timers with one deadline fire in arming order.

    Netio cannot use the simulator's {!Packed_queue} instead: that
    queue's floor advances whenever its minimum is peeked, and Netio
    peeks on every step to size its [select] timeout, so a timer armed
    afterwards with an earlier deadline would fall below the floor. *)

type 'a t

(** [create ?capacity ~cmp ()] is an empty heap.  [capacity] is the
    initial array size hint (default 256; clipped to at least 1). *)
val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t

(** Number of queued elements; O(1). *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** Pushes an element; amortised O(log n), allocation-free except when
    the backing array doubles. *)
val add : 'a t -> 'a -> unit

(** Smallest element, if any, without removing it. *)
val peek_min : 'a t -> 'a option

(** Removes and returns the smallest element. *)
val pop_min : 'a t -> 'a option
