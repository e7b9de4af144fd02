(** Sharded metrics registry: counters, gauges, and log-scale histograms.

    Each registry carries one shard per worker domain plus shard 0 for the
    coordinator. Recording is a plain (unsynchronized) mutation of the
    calling domain's own shard — no atomics, no contention; reads aggregate
    across shards and are exact at quiescence (all workers joined).
    Counters are always live; [set_timing false] disables only the
    wall-clock/histogram path so the hot path costs nothing measurable when
    metrics are off. *)

type registry
type counter
type histogram

val create :
  ?timing:bool -> ?time_source:Time_source.t -> ?shards:int -> unit -> registry
(** [create ~shards:n ()] makes a registry with [n] shards (min 1).
    Shard 0 belongs to the creating/coordinator domain; bind worker [i]
    to shard [i+1] with {!bind_shard}. [time_source] (default
    {!Time_source.real}) is the clock behind {!time}, {!now} and every
    span/phase timing taken against this registry — pass a virtual source
    to make them deterministic under simulation. *)

val set_timing : registry -> bool -> unit
(** Enable/disable the timing path (histogram observations, clock reads).
    Counters are unaffected and always record. *)

val timing_on : registry -> bool

val time_source : registry -> Time_source.t
(** The clock this registry reads. *)

val bind_shard : registry -> int -> unit
(** [bind_shard reg i] routes this domain's subsequent recordings to shard
    [i] (clamped to shard 0 if out of range). Called by worker domains at
    startup; unbound domains record into shard 0. *)

val shard_index : registry -> int
(** Shard the calling domain currently records into (0 if unbound). *)

(** {1 Registration} — call once at setup, keep the handle. *)

val counter : registry -> ?help:string -> string -> counter

val histogram :
  registry -> ?help:string -> ?shift:int -> ?scale:float -> string -> histogram
(** Log-scale histogram with power-of-two buckets: bucket [i] has upper
    bound [2^(shift+i+1)] raw units, 28 buckets. [scale] converts raw units
    to the exposed unit (default [1e-9]: observe nanoseconds, expose
    seconds). For count-valued histograms (e.g. batch fill) use
    [~shift:(-1) ~scale:1.]. *)

val gauge_fn : registry -> ?help:string -> string -> (unit -> float) -> unit
(** Register a gauge sampled at snapshot time (queue depth, parked count). *)

val counter_fn : registry -> ?help:string -> string -> (unit -> float) -> unit
(** Like {!gauge_fn} but exposed as a counter — for monotone totals that
    already live elsewhere (WAL byte counters, per-worker stats). The name
    may embed labels, e.g. ["demaq_worker_drains_total{worker=\"0\"}"]. *)

(** {1 Recording} — safe from any domain, hits only the caller's shard. *)

val incr : counter -> unit
val add : counter -> int -> unit

val sampled : registry -> bool
(** [sampled reg] ticks the caller's shard and reports true once every
    8 calls. Hot paths use this to pay for wall-clock timing on a
    sample of events rather than every one: latency histograms stay
    representative while the per-event cost stays at a couple of plain
    stores. *)

val observe : histogram -> int -> unit
(** [observe h raw] records one observation in raw units (negative clamps
    to 0). Call sites should gate clock reads on {!timing_on}. *)

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] observes [f]'s duration in ns (against the registry's time
    source) if timing is on, otherwise just runs [f]. *)

val now : registry -> int
(** Current time in integer nanoseconds on the registry's time source —
    virtual under simulation, monotonic real time otherwise. *)

val now_ns : unit -> int
(** Process real time in integer nanoseconds, monotonic (CAS-max clamped;
    never decreases even if the wall clock steps backwards). Prefer {!now}
    anywhere a registry is in reach so simulation stays deterministic. *)

(** {1 Reading} *)

val value : counter -> int
(** Sum of the counter across all shards. *)

val histogram_totals : histogram -> int * int
(** [(count, sum)] across all shards, in raw (unscaled) units. *)

val percentile : histogram -> float -> float
(** [percentile h q] estimates the [q]-quantile ([0. <= q <= 1.]) of the
    recorded observations, in exposed units (raw × scale), by walking the
    cumulative log-scale buckets and interpolating linearly inside the
    bucket the rank lands in. The estimate is a true value's bucket, so
    the relative error is bounded by the bucket width (a factor of 2 at
    worst, typically much less after interpolation). [nan] when no
    observation was recorded; ranks past the last bucket report its upper
    bound. *)

val percentiles : histogram -> float list -> float list
(** [percentiles h [0.5; 0.99; 0.999]] — {!percentile}, mapped. *)

type window
(** A movable baseline over one histogram, for windowed quantiles: the
    adaptive controller reacts to the barrier latency of the last control
    interval, not the whole process lifetime. *)

val window : histogram -> window
(** Open a window whose baseline is the histogram's current contents. *)

val window_delta : window -> float -> int * float
(** [window_delta w q] estimates the [q]-quantile (exposed units, same
    bucket-interpolation contract as {!percentile}) of only the
    observations recorded since the window's baseline, returns it with
    their count ([(0, nan)] when none), and advances the baseline. *)

type sample =
  | Counter of { name : string; help : string; value : float }
  | Gauge of { name : string; help : string; value : float }
  | Histogram of {
      name : string;
      help : string;
      buckets : (float * int) array;  (** (upper bound, cumulative count) *)
      sum : float;
      count : int;
    }

val snapshot : registry -> sample list
(** Aggregate every metric across shards and sample every gauge_fn /
    counter_fn. *)

val render : registry -> string
(** Prometheus text exposition (format 0.0.4) of {!snapshot}. *)

val fmt_float : float -> string
(** How {!render} writes a sample value: an integral value below [1e15]
    without a fraction ([%.0f]), anything else as [%.9g]. [/stats.json]
    formats its numbers with it too. *)

val series : ?label_kv:string -> string -> string -> string
(** [series name suffix] is the series [family ^ suffix] of a registered
    name, its labels kept: [series "x{q=\"a\"}" "_sum"] is
    ["x_sum{q=\"a\"}"]. [label_kv], when given, is spliced in front of
    the existing labels. *)
