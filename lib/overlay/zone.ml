type t = { x_lo : float; x_hi : float; y_lo : float; y_hi : float }

let unit = { x_lo = 0.; x_hi = 1.; y_lo = 0.; y_hi = 1. }

let make ~x_lo ~x_hi ~y_lo ~y_hi =
  let valid lo hi = 0. <= lo && lo < hi && hi <= 1. in
  if not (valid x_lo x_hi && valid y_lo y_hi) then
    invalid_arg "Zone.make: bounds must satisfy 0 <= lo < hi <= 1";
  { x_lo; x_hi; y_lo; y_hi }

let contains z (p : Point.t) =
  z.x_lo <= p.x && p.x < z.x_hi && z.y_lo <= p.y && p.y < z.y_hi

type axis = X | Y

let split_axis z =
  let width = z.x_hi -. z.x_lo and height = z.y_hi -. z.y_lo in
  if width >= height then (X, (z.x_lo +. z.x_hi) /. 2.)
  else (Y, (z.y_lo +. z.y_hi) /. 2.)

let split z =
  match split_axis z with
  | X, mid -> ({ z with x_hi = mid }, { z with x_lo = mid })
  | Y, mid -> ({ z with y_hi = mid }, { z with y_lo = mid })

let volume z = (z.x_hi -. z.x_lo) *. (z.y_hi -. z.y_lo)

let center z =
  Point.make ~x:((z.x_lo +. z.x_hi) /. 2.) ~y:((z.y_lo +. z.y_hi) /. 2.)

(* Coordinates 0. and 1. denote the same torus seam. *)
let seam_eq a b =
  a = b || (a = 0. && b = 1.) || (a = 1. && b = 0.)

let intervals_abut a_lo a_hi b_lo b_hi =
  seam_eq a_hi b_lo || seam_eq b_hi a_lo

let intervals_overlap a_lo a_hi b_lo b_hi =
  Float.min a_hi b_hi -. Float.max a_lo b_lo > 0.

let adjacent a b =
  let x_abut = intervals_abut a.x_lo a.x_hi b.x_lo b.x_hi in
  let y_abut = intervals_abut a.y_lo a.y_hi b.y_lo b.y_hi in
  let x_overlap = intervals_overlap a.x_lo a.x_hi b.x_lo b.x_hi in
  let y_overlap = intervals_overlap a.y_lo a.y_hi b.y_lo b.y_hi in
  (x_abut && y_overlap) || (y_abut && x_overlap)

let axis_distance_to_interval c lo hi =
  if lo <= c && c < hi then 0.
  else Float.min (Point.axis_distance c lo) (Point.axis_distance c hi)

let distance_to_point z (p : Point.t) =
  let dx = axis_distance_to_interval p.x z.x_lo z.x_hi in
  let dy = axis_distance_to_interval p.y z.y_lo z.y_hi in
  sqrt ((dx *. dx) +. (dy *. dy))

let equal a b =
  a.x_lo = b.x_lo && a.x_hi = b.x_hi && a.y_lo = b.y_lo && a.y_hi = b.y_hi

let pp fmt z =
  Format.fprintf fmt "[%.4f,%.4f)x[%.4f,%.4f)" z.x_lo z.x_hi z.y_lo z.y_hi
