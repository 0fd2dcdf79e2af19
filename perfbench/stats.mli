(** The benchmark's own statistics.

    Percentiles follow one rule: a percentile is reported only when at
    least {!min_beyond} samples lie beyond it, so a p99 needs 1000
    samples.  Open-loop latency is timed from each request's due time,
    not from when the generator managed to send it.  Outage after a
    leader kill is {!Smr.Recovery.check}'s longest inter-commit stall
    over the samples of one failover cycle. *)

val min_beyond : int
(** 10 *)

val sorted : float array -> float array
(** A sorted copy (ascending; [infinity] sorts last). *)

val percentile : float array -> float -> float option
(** [percentile sorted q], [q] in (0, 1): the nearest-rank sample
    (rank [ceil (q n)]), or [None] when fewer than {!min_beyond}
    samples lie beyond that rank. *)

val median : float array -> float
(** Median of any non-empty array (the mean of the middle two for an
    even length) — for medians of a run's repeats, where the
    {!percentile} rule does not apply.  [nan] on an empty array. *)

val open_loop_latency : due:int -> sent:int -> completed:int -> int * int
(** [(latency, lag)] in the clock's unit: latency runs from the due time
    to completion, lag from the due time to the actual send. *)

val cycle_outage :
  bound:float ->
  kill:float ->
  until:float ->
  (float * float) array ->
  Smr.Recovery.verdict
(** [cycle_outage ~bound ~kill ~until samples] checks one failover cycle:
    the [(completion time, latency)] samples (seconds, in completion
    order) completed before [until] go to {!Smr.Recovery.check} with
    [~after:kill]; the verdict's [stall] is the cycle's outage. *)
