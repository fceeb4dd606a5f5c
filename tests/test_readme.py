"""The README's examples run as written and print what they state."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading):
    """The first ```python block under the README section `heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_what_its_comments_state():
    code = python_block("Quick start")
    stated = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert stated == ["SqrtResult(root=3, remainder=6)", "13", "224"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == stated


def test_the_and_table_is_what_the_kernel_and_the_oracle_trace_to():
    # each row: n, the pipeline's Toffolis, its generated kernel's ANDs,
    # and the restoring oracle's ANDs as written and as its outputs use them
    from test_sim import generated_counts, traced_isqrt_oracle

    from qsqrt import build_isqrt_pipeline

    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^  \| (\d+) \| (\d+) \| (\d+) \| (\d+) \| (\d+) \|$", text, re.M)
    assert [int(n) for n, *_ in rows] == list(range(8, 65, 8))
    stated = re.search(
        r"n = 64 pipeline's kernel computes (\d[\d ]*) ANDs for its (\d[\d ]*)\s+"
        r"Toffolis and executes (\d[\d ]*) \^ and & where the loop executes (\d[\d ]*)\.",
        text,
    )
    for row in rows:
        n, toffolis, kernel, written, used = map(int, row)
        ands, ccx, executed, looped = generated_counts(build_isqrt_pipeline(n))
        assert (toffolis, kernel) == (ccx, ands), n
        if n == 64:
            figures = [int(g.replace(" ", "")) for g in stated.groups()]
            assert figures == [ands, ccx, executed, looped]
        assert (written, used) == traced_isqrt_oracle(n), n
        assert kernel - written == n // 2 + 4 and kernel - used == n + 2, n
