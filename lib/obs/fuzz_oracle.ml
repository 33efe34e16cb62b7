module Scenario = Cup_sim.Scenario
module Fuzz = Cup_sim.Fuzz
module Runner = Cup_sim.Runner

(* The audited executor behind [cup fuzz]: run the scenario with the
   invariant auditor and the streaming trace analyzer attached, and
   fold whatever goes wrong into a {!Fuzz.verdict}.  Pure function of
   the scenario — no wallclock, no host state — which is what lets
   {!Fuzz.run_seeds} fan it across domains with a deterministic merge
   and lets {!Fuzz.shrink} re-run candidates without re-checking. *)

let execute (cfg : Scenario.t) : Fuzz.verdict =
  match Scenario.validate cfg with
  | Error msg ->
      (* A generator or shrinker bug, not a protocol bug — but the
         fuzzer must report it, not crash the sweep. *)
      Fail
        { code = "GEN"; invariant = "scenario"; at = 0.; detail = msg }
  | Ok () -> (
      let repro = Fuzz.repro_command cfg in
      let tolerate_stale = cfg.reorder <> None || cfg.duplication <> None in
      let live = Runner.Live.create cfg in
      let auditor =
        Audit.create
          ~max_backlog:
            (max 1024 (16 * cfg.Scenario.nodes * Scenario.total_keys cfg))
          ~backlog:(fun () -> Runner.Live.justification_backlog live)
          ~tolerate_stale ~context:repro
          ~counters:(Runner.Live.counters live)
          ()
      in
      let streaming = Analyzer.Streaming.create () in
      Runner.Live.set_tracer live
        (Some
           (fun event ->
             Analyzer.Streaming.feed streaming event;
             Audit.observe auditor event));
      match
        let (_ : Runner.result) = Runner.Live.finish live in
        Audit.finish auditor;
        Analyzer.Streaming.finish streaming
      with
      | exception Audit.Violation v ->
          Fail
            {
              code = v.code;
              invariant = v.invariant;
              at = v.at;
              detail = v.detail;
            }
      | summary ->
          if summary.Analyzer.orphans > 0 then
            Fail
              {
                code = "V4";
                invariant = "spans";
                at = 0.;
                detail =
                  Printf.sprintf
                    "%d orphan spans in the trace forest (first: %s) | %s"
                    summary.Analyzer.orphans
                    (match summary.Analyzer.orphan_examples with
                    | (span, parent) :: _ ->
                        Printf.sprintf "span %d references missing parent %d"
                          span parent
                    | [] -> "none recorded")
                    repro;
              }
          else Pass { events = Audit.events_checked auditor })
