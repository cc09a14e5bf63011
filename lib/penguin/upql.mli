(** A textual update language on view objects.

    "The query representation can also be used to formulate update
    requests" (Section 3) — these statements select instances with an
    OQL condition ({!Viewobject.Oql}) and turn edits into the complete
    update requests of {!Vo_core.Request}, which the engine translates
    per the object's translator:

    {v
    set units = 4 where course_id = 'CS345'
    set GRADES[pid = 1] grade = 'A+' where course_id = 'CS345'
    set course_id = 'EES345', DEPARTMENT.dept_name = 'Engineering
        Economic Systems' where course_id = 'CS345'
    attach GRADES (pid = 5, grade = 'B') where course_id = 'CS345'
    attach ORDERS#2 (order_no = 9, drug = 'aspirin', dose = 100,
        prescriber = 101) in VISIT#2[visit_no = 1] where mrn = 7001
    detach GRADES[pid = 2] where course_id = 'CS345'
    delete where level = 'undergrad'
    v}

    - [set ref = literal, ... where cond] — replacement. A [ref] is a
      (possibly label-qualified) attribute; when the node is set-valued,
      a selector block [LABEL[pred]] must single out one sub-instance.
    - [attach LABEL (attr = literal, ...) [in PARENT[pred]] where cond] —
      add one sub-instance under the node's parent (the [in] selector
      picks the parent occurrence when the parent is set-valued).
    - [detach LABEL[pred] where cond] — remove one component (a partial
      update, realized as a replacement).
    - [delete where cond] — complete deletion of every matching instance.

    A statement is one transaction: {!Session.queue_stmt} stages its
    {!requests} — one per matching instance — and {!Session.commit}
    commits all of them or none. *)

open Relational
open Viewobject

type assignment = {
  label : string;  (** resolved node label *)
  sel : Predicate.t option;  (** selector block, if any *)
  attr : string;
  value : Value.t;
}

type statement =
  | Delete of Vo_query.condition
  | Set of assignment list * Vo_query.condition
  | Detach of string * Predicate.t * Vo_query.condition
  | Attach of {
      label : string;  (** child node to add a sub-instance to *)
      bindings : (string * Value.t) list;
      parent_sel : Predicate.t option;
          (** selects the parent occurrence when the parent node is
              itself set-valued *)
      cond : Vo_query.condition;
    }

val parse : Definition.t -> string -> (statement, string) result

val requests :
  Workspace.t -> object_name:string -> string ->
  (Vo_core.Request.t list, string) result
(** Evaluate the statement against the workspace {e once} and return
    the update requests it denotes — one per matching instance, no-op
    edits skipped — without applying anything. An edit that does not
    apply to some matching instance (a selector that matches nothing
    there, or several sub-instances) fails the whole statement. *)

val pp_statement : Format.formatter -> statement -> unit
