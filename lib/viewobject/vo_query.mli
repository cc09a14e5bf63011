(** Declarative queries on view objects (the query model of Section 3).

    A condition constrains instances: node-level predicates (satisfied
    when {e some} tuple of the labelled node satisfies them — set-valued
    children have existential semantics) and child-cardinality
    constraints, which express requests such as Figure 4's "graduate
    courses with less than 5 students having enrolled". *)

open Relational

type condition =
  | C_true
  | C_node of string * Predicate.t
      (** [C_node (label, p)]: some tuple of node [label] satisfies [p] *)
  | C_count of string * Predicate.comparison * int
      (** [C_count (label, cmp, n)]: the number of sub-instances rooted at
          node [label] compares as given *)
  | C_and of condition * condition
  | C_or of condition * condition
  | C_not of condition

val holds : condition -> Instance.t -> bool

val run :
  Database.t -> Definition.t -> condition -> Instance.t list
(** Instantiate and filter. Pivot-level predicates occurring in positive
    conjunctive position are pushed down to the pivot selection (the
    "composition with the object's structure" the paper describes), so
    non-qualifying pivot tuples are never assembled. When they fix the
    whole pivot key, that selection is a key lookup
    ({!Relational.Relation.select}) and at most one instance is built;
    otherwise the pivot relation is scanned. *)

val pushdown : Definition.t -> condition -> Predicate.t
(** The pivot predicate extracted by the optimizer ({!run} uses it; it is
    exposed for tests and the E4 bench). *)

val pp_condition : Format.formatter -> condition -> unit
