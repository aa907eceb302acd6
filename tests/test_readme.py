"""The README's worked example is the spec's one complete use of the public
API; it must keep running as written."""

from pathlib import Path


def test_worked_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("## A worked example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out
    assert "stopped on gradient" in out
    assert "distance to exact solution" in out
