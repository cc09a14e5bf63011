(** JSON rendering of view-object instances — the shape applications
    consume: one object per instance, atomic attributes as scalars,
    singleton children (n:1 references, subsets) as nested objects, and
    set-valued children as arrays.

    Children are keyed by node label; a child that is structurally
    singular (at most one sub-instance) renders as an object or [null],
    others as arrays. The rendering is schema-driven via the
    {!Viewobject.Definition.t} so the distinction is stable even when a
    set-valued child happens to hold one element. *)

open Viewobject

val value : Relational.Value.t -> string
(** Scalar rendering: ints exactly, floats and strings as {!Obs.Json}
    prints them (a float that is not finite as [null]), null. *)

val instance : Definition.t -> Instance.t -> string
val instances : Definition.t -> Instance.t list -> string
(** A JSON array of {!instance} objects. *)
