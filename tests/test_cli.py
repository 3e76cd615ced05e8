from warped_disk import cli


def test_verify_infeasible_tolerance_has_its_own_exit_code(tmp_path):
    assert cli.EXIT_INFEASIBLE != cli.EXIT_UNDETERMINED
    code = cli.main(["verify", "--tol", "1e-20,1e-20", "--out", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE
    assert "tolerance-infeasible" in (tmp_path / "verify_report.txt").read_text()


def test_classify_outputs_are_byte_identical_across_runs(tmp_path):
    argv = ["classify", "--profile", "power-curvature", "--eps", "1",
            "--horizon", "100", "--rmax", "120", "--mmax", "2"]
    for run in ("a", "b"):
        assert cli.main(argv + ["--out", str(tmp_path / run)]) == cli.EXIT_OK
    for name in ("classification.txt", "evidence.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
