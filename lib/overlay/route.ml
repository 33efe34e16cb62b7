type reason = Dead_node | No_progress | Hop_limit

type hop = Owner | Forward of Node_id.t | Stuck of reason

type t =
  | Delivered of { hops : Node_id.t list; count : int }
  | Unreachable of { reason : reason; partial : Node_id.t list; count : int }

let reason_to_string = function
  | Dead_node -> "dead-node"
  | No_progress -> "no-progress"
  | Hop_limit -> "hop-limit"

let pp_reason fmt r = Format.pp_print_string fmt (reason_to_string r)

let pp fmt = function
  | Delivered { count; _ } -> Format.fprintf fmt "delivered (%d hops)" count
  | Unreachable { reason; count; _ } ->
      Format.fprintf fmt "unreachable after %d hops (%a)" count pp_reason
        reason

let hops_exn = function
  | Delivered { hops; _ } -> hops
  | Unreachable { reason; _ } ->
      invalid_arg ("Route.hops_exn: unreachable: " ^ reason_to_string reason)

(* The shared greedy-forwarding loop: every substrate's [route] is this
   walk over its own [next_hop], differing only in the step budget.
   [steps] always equals the length of [acc], so both outcomes carry
   their hop count without a final [List.length]. *)
let walk ~limit ~next_hop from =
  let rec go current steps acc =
    if steps > limit then
      Unreachable { reason = Hop_limit; partial = List.rev acc; count = steps }
    else
      match next_hop current with
      | Owner -> Delivered { hops = List.rev acc; count = steps }
      | Forward hop -> go hop (steps + 1) (hop :: acc)
      | Stuck reason ->
          Unreachable { reason; partial = List.rev acc; count = steps }
  in
  go from 0 []
