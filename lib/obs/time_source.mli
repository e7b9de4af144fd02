(** The time seam: every wall-clock read in the system goes through one of
    these, so a simulation can substitute a virtual source and make a whole
    engine run — phase timings, lifecycle spans, fsync latencies —
    deterministic under a seed.

    Two implementations:

    - {!real}: a monotonic clock. OCaml's [Unix] offers only
      [gettimeofday], which can jump backwards under NTP adjustment; the
      real source clamps it through a process-wide CAS-max so consecutive
      reads never decrease (the Mtime-style contract span and histogram
      arithmetic assumes).
    - {!virtual_}: a plain nanosecond counter advanced explicitly (by the
      engine {!Demaq_engine.Clock} as virtual ticks pass, or directly by a
      simulation harness). Reads never touch the OS. *)

type t

val real : t
(** The process clock, monotonic by construction (never decreases even if
    the wall clock is stepped backwards). *)

val virtual_ : ?start_ns:int -> unit -> t
(** A fresh virtual source, starting at [start_ns] (default 0). *)

val now_ns : t -> int
(** Current time in nanoseconds. Monotonic for both implementations. *)

val advance_ns : t -> int -> unit
(** Advance a virtual source by the given number of nanoseconds; a no-op
    on {!real} (real time advances itself). Thread-safe. *)
