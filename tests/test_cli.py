import json

from natstrat.cli import _run, build_parser, cli_main
from natstrat.report import (
    EXIT_OK, EXIT_PROPERTY, EXIT_RESOURCE, EXIT_USAGE, RunReport,
)
from natstrat.casestudy import DATA_DIR
from natstrat.checker import SynthesisConfig

from conftest import count_explore


def run(*argv):
    return cli_main(list(argv))


def _text(report) -> list[str]:
    # the text report without its wall times
    return [line for line in report.to_text().splitlines() if "wall_time" not in line]


def test_casestudy_run_all_exit_zero_and_numbers():
    code, report = run("casestudy", "--run-all")
    assert code == EXIT_OK
    values = [t.value for t in report.tasks]
    for expected in (15, 21, 17, 29, 16, 6, 7, 9, 11):
        assert expected in values
    verdict_rows = [t for t in report.tasks if t.kind == "verdict"]
    assert verdict_rows and all(t.status == "ok" for t in verdict_rows)
    lines = report.to_text().splitlines()
    assert lines[0] == "[complexity] cast_verify: ok (value: 15, expected: 15)"
    assert lines[-1] == "exit: 0"


def test_casestudy_list():
    code, report = run("casestudy", "--list")
    assert code == EXIT_OK
    names = {t.name for t in report.tasks}
    assert any("voter_base" in n for n in names)


def test_complexity_of_wait_strategy(tmp_path):
    f = tmp_path / "idle.nss"
    f.write_text("strategy idle for Voter { when true do wait; }")
    code, report = run("complexity", str(f), "--model", "voter_base")
    assert code == EXIT_OK
    assert report.tasks[0].value == 1


def test_complexity_literal_convention():
    code, report = run("complexity", str(DATA_DIR / "coercion_punisher.nss"),
                       "--model", "coercion_punisher",
                       "--convention", "literal")
    assert code == EXIT_OK
    assert report.tasks[0].value == 18


def test_check_bound_gate_exit_one():
    code, report = run("check", "--model", "voter_base",
                       "--formula-name", "reach_end",
                       "--use", "cast_verify", "--bound", "14")
    assert code == EXIT_PROPERTY
    assert report.tasks[0].value is False
    assert "complexity 15 exceeds bound 14" in report.tasks[0].detail["reason"]


def test_check_verify_ok():
    code, report = run("check", "--model", "voter_base",
                       "--formula-name", "reach_end", "--use", "cast_verify")
    assert code == EXIT_OK and report.tasks[0].value is True


def test_check_dispute_resolution_via_witness_annotation():
    code, report = run("check", "--model", "voter_base",
                       "--formula-name", "dispute_resolution")
    assert code == EXIT_OK and report.tasks[0].value is True


def test_check_use_keeps_the_strategy_a_formula_names():
    # dispute_resolution names <<Voter:signal_on_dispute>>; --use supplies
    # strategies only to nodes that name none
    code, report = run("check", "--model", "voter_base",
                       "--formula-name", "dispute_resolution", "--use", "cast_verify")
    assert code == EXIT_OK and report.tasks[0].value is True


def test_unknown_model_is_a_usage_error():
    code, report = run("check", "--model", "no_such_model", "--formula", "A G true")
    assert code == EXIT_USAGE
    assert "no bundled model 'no_such_model'" in report.tasks[0].detail["error"]


def test_a_directory_does_not_shadow_a_bundled_model(monkeypatch, tmp_path):
    (tmp_path / "voter_base").mkdir()
    monkeypatch.chdir(tmp_path)
    code, report = run("check", "--model", "voter_base",
                       "--formula-name", "reach_end", "--use", "cast_verify")
    assert code == EXIT_OK and report.tasks[0].value is True


def test_check_inline_formula_synthesize():
    code, report = run("check", "--model", "voter_base",
                       "--formula", "A G !(Voter@error && Voter@end)",
                       "--mode", "synthesize")
    assert code == EXIT_OK


def test_check_synth_mode_finds_witness():
    code, report = run("check", "--model", "voter_base",
                       "--formula", "<<Voter>>^1 F Voter@printing",
                       "--mode", "synth")
    assert code == EXIT_OK
    assert report.tasks[0].value is True
    assert "when true do" in report.tasks[0].detail["witness_strategy"]
    assert _text(report) == [
        "[check] <<Voter>>^1 F Voter@printing: ok (value: True)",
        "    reason: witness of complexity 1",
        "    witness_strategy:",
        "      strategy unnamed for Voter {",
        "        when true do *;",
        "      }",
        "exit: 0"]


def test_steps_subcommand():
    code, report = run("steps", "--model", "voter_base",
                       "--strategy", "cast_verify", "--goal", "end",
                       "--start", "Voter=has_ballot")
    assert code == EXIT_OK
    assert report.tasks[0].value == 9


def test_synth_subcommand():
    code, report = run("synth", "--model", "coercion_infector",
                       "--coalition", "Coercer", "--bound", "2",
                       "--goal", "F infected")
    assert code == EXIT_OK
    assert report.tasks[0].value is True
    assert report.tasks[0].detail["witness_strategy"]


def test_export_subcommand(tmp_path):
    code, report = run("export-uppaal", "--model", "voter_base",
                       "--fix-strategy", "cast_verify",
                       "--query", "reach_end", "--out", str(tmp_path))
    assert code == EXIT_OK
    q = (tmp_path / "voter_base.q").read_text()
    assert "A<> Voter.end" in q
    assert (tmp_path / "voter_base.xml").exists()


def test_usage_error_exit_two():
    code, _ = run("check", "--model", "voter_base",
                  "--formula-name", "no_such_formula")
    assert code == EXIT_USAGE
    code2, _ = run("steps", "--model", "voter_base",
                   "--strategy", "missing", "--goal", "end")
    assert code2 == EXIT_USAGE


def test_start_item_without_a_location_is_a_usage_error():
    for item in ("Voter", "Voter=", "=has_ballot"):
        code, report = run("steps", "--model", "voter_base", "--strategy", "cast_verify",
                           "--goal", "end", "--start", item)
        assert code == EXIT_USAGE, item
        assert report.tasks[0].detail["error"] == f"--start expects AGENT=LOC, got {item!r}"


def test_resource_cap_exit_three():
    code, _ = run("--state-cap", "5", "check", "--model", "voter_base",
                  "--formula-name", "reach_end", "--use", "cast_verify")
    assert code == EXIT_RESOURCE
    code, report = run("synth", "--state-cap", "5", "--model", "voter_base",
                       "--coalition", "Voter", "--bound", "2", "--goal", "F end")
    assert code == EXIT_RESOURCE
    assert "state cap 5 exceeded" in report.tasks[0].detail["error"]


def test_state_cap_below_one_is_a_usage_error():
    for cap in ("0", "-1"):
        code, report = run("--state-cap", cap, "check", "--model", "voter_base",
                           "--formula-name", "reach_end", "--use", "cast_verify")
        assert code == EXIT_USAGE
        assert report.tasks[0].detail["error"] == f"--state-cap must be at least 1, got {cap}"
    code, _ = run("steps", "--state-cap", "0", "--model", "voter_base",
                  "--strategy", "cast_verify", "--goal", "end")
    assert code == EXIT_USAGE
    code, _ = run("--state-cap", "1", "check", "--model", "voter_base",
                  "--formula-name", "reach_end", "--use", "cast_verify")
    assert code == EXIT_RESOURCE


def test_unknown_verdict_reports_the_capped_search():
    code, report = run("--format", "json", "check", "--model", "voter_base",
                       "--mode", "synth", "--formula", "A G <<Voter>>^3 F end")
    assert code == EXIT_RESOURCE
    detail = report.tasks[0].detail
    assert detail["reason"] == "enumeration cap hit (unknown)"
    assert detail["stats"]["strategies_enumerated"] > SynthesisConfig().enumeration_cap
    assert detail["stats"]["strategies_checked"] > 0


def test_json_report_round_trip():
    code, report = run("--format", "json", "casestudy", "--run-all")
    text = report.to_json()
    again = RunReport.from_json(text)
    assert again.to_json() == text
    assert json.loads(text)["exit_status"] == 0


def test_seed_never_changes_verdicts():
    reports = []
    for seed in (1, 7, 12345):
        code, report = run("--seed", str(seed), "casestudy", "--run-all")
        assert code == EXIT_OK
        reports.append([(t.kind, t.name, t.status, t.value)
                        for t in report.tasks])
    assert reports[0] == reports[1] == reports[2]


def test_format_without_value_is_a_usage_error(capsys):
    from natstrat.cli import main
    assert main(["--format"]) == EXIT_USAGE
    assert main(["casestudy", "--list", "--format"]) == EXIT_USAGE


def test_strategy_error_exit_two(tmp_path):
    f = tmp_path / "bad.nss"
    f.write_text("strategy bad for Voter { when true do enter; }")
    code, report = run("check", "--model", "voter_base", "--strategies", str(f),
                       "--use", "bad", "--formula", "<<Voter>>^1 F end")
    assert code == EXIT_USAGE
    assert report.tasks[0].kind == "error"
    assert "no rule matches" in report.tasks[0].detail["error"]


def test_a_named_strategy_for_another_agent_exit_two(tmp_path):
    f = tmp_path / "voter_any.nss"
    f.write_text("strategy voter_any for Voter { when true do *; }")
    for bound in (0, 5):
        code, report = run("check", "--model", "coercion_punisher", "--strategies", str(f),
                           "--formula", f"<<Coercer:voter_any>>^{bound} F true")
        assert code == EXIT_USAGE
        assert report.tasks[0].kind == "error"
        assert report.tasks[0].detail["error"] == "strategy voter_any is for Voter, not Coercer"


def test_check_reports_counterexample_trace():
    code, report = run("check", "--model", "voter_base",
                       "--formula", "A G !Voter@error", "--format", "json")
    assert code == EXIT_PROPERTY
    path = json.loads(report.to_json())["tasks"][0]["detail"]["witness_path"]
    assert path[0] == "(Voter@start)"
    assert "Voter@error" in path[-1]


def test_counterexample_trace_labels_each_step():
    code, report = run("check", "--model", "voter_base", "--formula", "A G !error",
                       "--format", "json")
    assert code == EXIT_PROPERTY
    text = report.to_json()
    detail = json.loads(text)["tasks"][0]["detail"]
    path, moves = detail["witness_path"], detail["witness_moves"]
    assert path[-1] == "(Voter@error)"
    assert moves == ["Voter.enter", "Voter.print_ballot", "Voter.scan_ballot",
                     "Voter.enter_vote", "Voter.check2", "Voter.signal_error"]
    assert len(moves) == len(path) - 1
    assert RunReport.from_json(text).to_json() == text


def test_counterexample_lasso_in_json_and_text():
    code, report = run("check", "--model", "voter_base", "--formula", "A F end")
    # the path is states 0,1,2,3,5,7,3: it returns to its fourth state
    path, moves = report.tasks[0].detail["witness_path"], report.tasks[0].detail["witness_moves"]
    assert [i for i, state in enumerate(path) if state.endswith("  <- cycle entry")] == [3]
    assert path[3] == path[-1] + "  <- cycle entry"
    assert len(moves) == 6 == len(path) - 1
    assert _text(report) == [
        "[check] A F end: fail (value: False)",
        "    reason: a maximal trace avoids the goal",
        "    witness_path:",
        "      (Voter@start)",
        "      (Voter@printing)",
        "      (Voter@has_ballot)",
        "      (Voter@check1; counter=1, checked1=1)  <- cycle entry",
        "      (Voter@printing; counter=1, checked1=1)",
        "      (Voter@has_ballot; counter=1, checked1=1)",
        "      (Voter@check1; counter=1, checked1=1)",
        "    witness_moves:",
        "      Voter.enter",
        "      Voter.print_ballot",
        "      Voter.check1",
        "      Voter.move_next",
        "      Voter.print_ballot",
        "      Voter.check1",
        "exit: 1"]


def test_main_survives_a_closed_pipe(monkeypatch, tmp_path):
    import io
    import sys
    from natstrat.cli import main

    sink = open(tmp_path / "sink", "w")

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return sink.fileno()

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        assert main(["casestudy", "--list", "--format=json"]) == EXIT_OK
    finally:
        sink.close()


def test_check_true_verdict_reports_no_failing_subformula():
    # the strategic node holds at every state the voter cannot tell apart
    # from the start; no subformula failed, so no reason and no path
    code, report = run("check", "--model", "voter_base", "--formula",
                       "K[Voter] <<Voter>>^15 F end", "--use", "cast_verify")
    assert code == EXIT_OK and report.tasks[0].value is True
    assert "reason" not in report.tasks[0].detail
    assert "witness_path" not in report.tasks[0].detail


def test_check_negation_reports_its_operand():
    code, report = run("check", "--model", "voter_base", "--formula",
                       "!<<Voter>>^14 F end", "--use", "cast_verify")
    assert code == EXIT_OK and report.tasks[0].value is True
    assert report.tasks[0].detail["reason"] == "complexity 15 exceeds bound 14"


def test_unreadable_files_are_usage_errors(tmp_path):
    for argv in (("complexity", str(tmp_path / "missing.nss")),
                 ("check", "--model", "voter_base", "--strategies",
                  str(tmp_path / "missing.nss"), "--formula", "A F end"),
                 ("complexity", str(DATA_DIR / "voter_base.nss"), "--model", str(tmp_path))):
        code, report = run(*argv)
        assert code == EXIT_USAGE, argv
        assert report.tasks[0].kind == "error", argv
        assert "Errno" in report.tasks[0].detail["error"], argv


def test_negative_bound_is_a_usage_error():
    code, report = run("check", "--model", "voter_base", "--formula-name", "reach_end",
                       "--use", "cast_verify", "--bound", "-3")
    assert code == EXIT_USAGE
    assert report.tasks[0].kind == "error"
    assert "bound must be >= 0" in report.tasks[0].detail["error"]


def test_check_counterexample_explores_once(monkeypatch):
    calls = count_explore(monkeypatch)
    code, report = run("check", "--model", "voter_base", "--formula", "A F end")
    assert code == EXIT_PROPERTY
    assert report.tasks[0].detail["witness_path"][0] == "(Voter@start)"
    assert len(calls) == 1


def test_steps_witness_explores_once(monkeypatch, tmp_path):
    # the witness of an unreachable or unbounded result is rendered from the
    # outcome graph steps_to_goal explored
    spin = tmp_path / "spin.nsm"
    spin.write_text("agent T { init s0; loc spin; loc win; edge s0 -> spin on a; "
                    "edge spin -> s0 on a; edge s0 -> win on b; }")
    spin_s = tmp_path / "spin.nss"
    spin_s.write_text("strategy any for T { when true do *; }")
    cases = ((("--model", "voter_base", "--strategy", "signal_on_dispute"), "end",
              "unreachable", 7),
             (("--model", str(spin), "--strategies", str(spin_s), "--strategy", "any"), "win",
              "unbounded", 3))
    for args, goal, kind, length in cases:
        calls = count_explore(monkeypatch)
        code, report = run("steps", *args, "--goal", goal)
        assert (code, report.tasks[0].value) == (EXIT_OK, kind)
        assert len(report.tasks[0].detail["witness_path"]) == length
        assert len(calls) == 1, kind
    assert report.tasks[0].detail["witness_path"] == [
        "(T@s0)  <- cycle entry", "(T@spin)", "(T@s0)"]
    assert report.tasks[0].detail["witness_moves"] == ["T.a", "T.a"]


def test_negative_synth_bound_is_a_usage_error():
    code, report = run("synth", "--model", "voter_base", "--coalition", "Voter",
                       "--bound", "-1", "--goal", "F end")
    assert code == EXIT_USAGE
    assert report.tasks[0].kind == "error"
    assert "bound must be >= 0" in report.tasks[0].detail["error"]
    code, report = run("synth", "--model", "voter_base", "--coalition", "Voter",
                       "--bound", "0", "--goal", "F end")
    assert code == EXIT_PROPERTY
    assert report.tasks[0].detail["reason"] == "bound 0 below coalition size"


def test_unknown_coalition_member_is_a_usage_error_at_any_bound():
    for bound in ("0", "1"):
        code, report = run("synth", "--model", "voter_base", "--coalition", "Ghost",
                           "--bound", bound, "--goal", "F end")
        assert code == EXIT_USAGE, bound
        assert report.tasks[0].detail["error"] == "unknown agent Ghost"


def test_synth_goal_is_read_in_the_formula_grammar():
    argv = ("synth", "--model", "voter_base", "--coalition", "Voter", "--goal",
            "(!error U voted)", "--bound")
    code, report = run(*argv, "2")
    assert code == EXIT_OK
    witness = report.tasks[0].detail["witness_strategy"]
    assert witness == ("strategy unnamed for Voter {\n  when has_ballot do scan_ballot;\n"
                       "  when true do *;\n}")
    code, check = run("check", "--model", "voter_base", "--mode", "synth",
                      "--formula", "<<Voter>>^2 (!error U voted)")
    assert (code, check.tasks[0].detail["witness_strategy"]) == (EXIT_OK, witness)
    code, report = run(*argv, "1")
    assert (code, report.tasks[0].detail["reason"]) == (EXIT_PROPERTY, "exhaustive enumeration")
    # an operand that is not a guard, or a connective outside the operator
    for goal in ("F <<Voter>>^1 F end", "F end && voted", "F end -> voted"):
        code, report = run("synth", "--model", "voter_base", "--coalition", "Voter",
                           "--bound", "2", "--goal", goal)
        assert code == EXIT_USAGE, goal
        assert report.tasks[0].detail["error"].startswith("--goal must be X g, F g, G g"), goal
    code, report = run("synth", "--model", "voter_base", "--coalition", "Voter",
                       "--bound", "2", "--goal", "Q end")
    assert code == EXIT_USAGE


def test_synth_goal_parse_error_points_into_the_goal():
    # the goal is read after `<<Voter>>^2 `, which takes no column of it
    for goal, error in (("F (end", "<goal>:1:7: expected ')', got 'end of input'"),
                        ("F end $", "<goal>:1:7: illegal character '$'"),
                        ("F end\n  $", "<goal>:2:3: illegal character '$'"),
                        ("", "<goal>:1:1: expected temporal operator X/F/G or "
                             "'(f U g)', got 'end of input'")):
        code, report = run("synth", "--model", "voter_base", "--coalition", "Voter",
                           "--bound", "2", "--goal", goal)
        assert (code, report.tasks[0].detail["error"]) == (EXIT_USAGE, error), goal


def test_synth_reports_candidates_enumerated_and_checked():
    code, report = run("--format", "json", "synth", "--model", "voter_base",
                       "--coalition", "Voter", "--bound", "2", "--goal", "F end")
    assert code == EXIT_PROPERTY
    stats = report.tasks[0].detail["stats"]
    assert stats["strategies_enumerated"] == 4368
    assert 0 < stats["strategies_checked"] < 4368
    text = report.to_json()
    assert RunReport.from_json(text).to_json() == text
    assert f"strategies_checked={stats['strategies_checked']}" in report.to_text()
    code, report = run("check", "--model", "voter_base", "--mode", "synth",
                       "--formula", "<<Voter>>^1 F Voter@printing")
    assert code == EXIT_OK
    assert report.tasks[0].detail["stats"]["strategies_checked"] >= 1


def test_enumeration_cap_flag():
    # <<Voter>>^3 F end on voter_base has 1,192,464 canonical positions
    argv = ("synth", "--model", "voter_base", "--coalition", "Voter", "--bound", "3",
            "--goal", "F end", "--enumeration-cap")
    code, report = run(*argv, "1192464")
    assert code == EXIT_PROPERTY
    stats = report.tasks[0].detail["stats"]
    assert (stats["strategies_enumerated"], stats["strategies_checked"]) == (1_192_464, 17_747)
    code, report = run(*argv, "1192463")
    assert code == EXIT_RESOURCE
    assert "synthesis cap 1192463 exceeded" in report.tasks[0].detail["error"]
    code, report = run("check", "--model", "voter_base", "--mode", "synth", "--formula",
                       "<<Voter>>^2 F end", "--enumeration-cap", "4367")
    assert (code, report.tasks[0].detail["reason"]) == (EXIT_RESOURCE,
                                                        "enumeration cap hit (unknown)")
    for cap in ("0", "-1"):
        code, report = run(*argv, cap)
        assert code == EXIT_USAGE
        assert report.tasks[0].detail["error"] == \
            f"--enumeration-cap must be at least 1, got {cap}"
        code, _ = run("check", "--model", "voter_base", "--formula-name", "reach_end",
                      "--use", "cast_verify", "--enumeration-cap", cap)
        assert code == EXIT_USAGE


def test_one_parser_serves_successive_commands_without_leaking_flags():
    """The parser is built once per process; each command parses its own
    flags, so none carries over into the next."""
    assert build_parser() is build_parser()
    code, report, fmt = _run(["--seed", "7", "--format", "json", "casestudy", "--list"])
    assert (code, report.seed, fmt) == (EXIT_OK, 7, "json")
    code, report, fmt = _run(["casestudy", "--list"])
    assert (code, report.seed, fmt) == (EXIT_OK, None, "text")
    argv = ["check", "--model", "voter_base", "--formula", "A F end"]
    code, report, _ = _run(["--state-cap", "1", *argv])
    assert code == EXIT_RESOURCE
    code, report, _ = _run(argv)
    assert code == EXIT_PROPERTY and report.tasks[0].value is False


def _usage_error(*argv) -> str:
    code, report = run(*argv)
    assert code == EXIT_USAGE
    return report.tasks[0].detail["error"]


def test_unknown_names_and_a_missing_formula_are_usage_errors(tmp_path):
    nss = str(DATA_DIR / "voter_base.nss")
    assert _usage_error("complexity", nss, "--model", "voter_base",
                        "--strategy", "nope") == f"no strategy nope in {nss}"
    assert _usage_error("check", "--model", "voter_base") == \
        "check needs --formula or --formula-name"
    assert _usage_error("check", "--model", "voter_base", "--formula-name", "reach_end",
                        "--use", "nope") == "unknown strategy nope"
    assert _usage_error("check", "--model", "voter_base", "--formula",
                        "<<Voter:nope>>^15 F end") == "unknown strategy nope"
    export = ("export-uppaal", "--model", "voter_base", "--out", str(tmp_path))
    assert _usage_error(*export, "--fix-strategy", "nope") == "unknown strategy nope"
    assert _usage_error(*export, "--query", "nope") == "unknown formula nope"
