(** A minimal growable array (OCaml 5.1 predates [Dynarray]).

    Append-dominated usage: message queues only ever append rids;
    {!filter_in_place} serves transaction undo and tombstone compaction,
    {!sort} recovery. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills unused capacity (never observable through the API). *)

val length : 'a t -> int
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
(** @raise Invalid_argument out of bounds. *)

val iter : ('a -> unit) -> 'a t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_list : 'a t -> 'a list
val filter_in_place : ('a -> bool) -> 'a t -> unit

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** Stable sort in place; an already sorted vector costs one O(n) scan. *)
