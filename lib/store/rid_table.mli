(** A table keyed by message rid.

    Rids are dense and allocated in increasing order (§4.1), so the table
    is an array indexed by rid rather than a hash table: a lookup is two
    array reads and no hashing. It is paged — fixed pages of
    {!page_size} slots under a directory — and a page is freed as soon as
    its last entry is removed. One long-lived message far below the rest
    pins only its own page and the directory's span, so memory stays
    O(live entries + rid span / {!page_size}), not O(rid span).

    Iteration runs in increasing rid order. Not thread-safe: callers
    serialize access. *)

type 'a t

val page_size : int
(** Slots per page: 1024. *)

val create : dummy:'a -> 'a t
(** [dummy] marks an empty slot: it must be physically distinct from
    every value stored in the table. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val set : 'a t -> int -> 'a -> unit
(** Adds or replaces the entry for a rid (non-negative, at any position
    relative to the rids already present). *)

val remove : 'a t -> int -> unit
(** No-op when the rid is absent. Frees the rid's page when it empties. *)

val length : 'a t -> int
(** Entries present. *)

val lowest : 'a t -> int option
(** The smallest rid present. *)

val pages : 'a t -> int
(** Pages currently allocated: one per page-aligned rid range holding
    at least one entry. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** In increasing rid order. The function must not add or remove
    entries. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** In increasing rid order, under the same rule as {!iter}. *)
