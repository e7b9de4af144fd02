(* The time seam (see time_source.mli). The real source clamps
   [Unix.gettimeofday] through a process-wide CAS-max: gettimeofday is the
   only clock the stdlib offers, and it may be stepped backwards by NTP;
   span and histogram arithmetic (elapsed = t1 - t0) needs reads that never
   decrease. The clamp trades a frozen reading during a backwards step for
   never producing a negative duration. *)

type t =
  | Real
  | Virtual of int Atomic.t

(* Shared across every Real source in the process: monotonicity is a
   property of the clock, not of any one registry. *)
let real_floor = Atomic.make 0

let rec monotonic_now_ns () =
  let t = int_of_float (Unix.gettimeofday () *. 1e9) in
  let prev = Atomic.get real_floor in
  if t > prev then
    if Atomic.compare_and_set real_floor prev t then t else monotonic_now_ns ()
  else prev

let real = Real
let virtual_ ?(start_ns = 0) () = Virtual (Atomic.make start_ns)

let now_ns = function
  | Real -> monotonic_now_ns ()
  | Virtual ns -> Atomic.get ns

let advance_ns t delta =
  match t with
  | Real -> ()
  | Virtual ns -> if delta > 0 then ignore (Atomic.fetch_and_add ns delta)
