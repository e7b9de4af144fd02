(** A binary min-heap over an explicit ordering.

    Backs the dispatcher's message order and the echo-queue timer wheel.
    Push and pop are O(log n); peek is O(1). *)

type 'a t

val create : ('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** The minimum element, not removed. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)
