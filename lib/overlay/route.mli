(** Typed routing outcomes.

    Overlay routing used to abort the whole process ([failwith]) when
    greedy forwarding failed to make progress — which under churn and
    crash injection turns one failed lookup into a dead experiment
    grid.  Every substrate's [next_hop]/[route] now reports failure as
    data instead: the runner records an unreachable lookup and keeps
    simulating.

    On a healthy overlay the [Stuck]/[Unreachable] cases are
    unreachable by construction (the invariant checks still verify
    that); they become observable only when routing state is
    inconsistent — exactly the conditions fault injection creates. *)

type reason =
  | Dead_node  (** the routing node is dead or unknown *)
  | No_progress  (** no known peer is closer to the target *)
  | Hop_limit  (** the per-substrate step budget was exhausted *)

type hop =
  | Owner  (** the routing node's region/range contains the key *)
  | Forward of Node_id.t  (** forward to this neighbor *)
  | Stuck of reason  (** no routing decision possible *)

type t =
  | Delivered of { hops : Node_id.t list; count : int }
      (** successive hops from the origin (exclusive) to the owner
          (inclusive); [[]] when the origin is the owner.  [count] is
          [List.length hops], carried from the walk so printing a
          route never re-walks the list *)
  | Unreachable of { reason : reason; partial : Node_id.t list; count : int }
      (** the hops taken before the lookup failed, with their count *)

val reason_to_string : reason -> string
val pp_reason : Format.formatter -> reason -> unit
val pp : Format.formatter -> t -> unit
val hops_exn : t -> Node_id.t list
(** The hop list of a [Delivered] route.  Raises [Invalid_argument] on
    [Unreachable] — for tests and examples that assume a healthy
    overlay, not for the simulation hot path. *)

val walk :
  limit:int -> next_hop:(Node_id.t -> hop) -> Node_id.t -> t
(** The shared greedy-forwarding loop: repeatedly apply [next_hop]
    until [Owner], a [Stuck] decision, or more than [limit] steps. *)
