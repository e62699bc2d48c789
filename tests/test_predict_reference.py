"""`rangeboost predict` against the scalar reference scorer of oracles.py.

Each drawn CSV is scored by the CLI, in row blocks and parse-memo windows
patched small, in-process and in worker processes, and by
``reference_predict``; the predictions file must hold the reference's lines,
and a bad header or row must give the reference's exit code and error line.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Rejected, reference_predict
from rangeboost import cli, data_model
from rangeboost.cli import main

# Texts drawn for every column, so that a parse shared across columns shows:
# missing tokens, and numbers a categorical column keeps as text.
SHARED_TEXTS = ("", "NA", "n/a", " na ", "12", " 7 ", "$1,234", "-0")
NUMBER_TEXTS = ("19.99", "£12.50", "1,234.5", "$ 45", "nan", "inf", "1e400", "abc", "4.5", "0.2", "3")
COLOUR_TEXTS = ("Dark Grey", "red/blue", "red, blue & green", "matte black", "black and white", "teal", "GREY")
# Categories no model saw: a quote inside an unquoted field, a newline and a
# comma, which need quoting.
NEW_CATEGORIES = ('55" TV', "tv\nstand", "new, boxed", "brandXX")
FAULTS = ("missing-column", "duplicate-column", "short-row", "long-row", "empty-file")


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    """The path of a 12-tree model trained on 200 synthetic products, with
    missing cells."""
    root = tmp_path_factory.mktemp("reference")
    (root / "spec.json").write_text(json.dumps({"n_products": 200, "seed": 3}), encoding="utf-8")
    (root / "train.json").write_text(json.dumps({"model": {"n_trees": 12, "max_depth": 4}}), encoding="utf-8")
    assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "data.csv")]) == 0
    assert main([
        "train", "--data", str(root / "data.csv"), "--config", str(root / "train.json"),
        "--model-out", str(root / "model.json"),
    ]) == 0
    return root / "model.json"


def _field(text, quoted):
    """``text`` as a CSV field: quoted when drawn so or when it must be."""
    if quoted or text.startswith('"') or any(c in text for c in ",\r\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _score_files(draw, document):
    """A CSV for ``document``'s schema: columns shuffled, the target kept or
    not, cells of every kind, quoted or not, LF or CRLF line ends, a BOM,
    blank lines, and at most one fault in the header or a row."""
    state = document["pipeline"]
    texts = {}
    for column in state["schema"]:
        name = column["name"]
        if column["kind"] == "numeric":
            pool = st.sampled_from(NUMBER_TEXTS + SHARED_TEXTS) | st.floats(0, 500).map(repr)
        else:
            pool = st.sampled_from(state["vocabularies"][name]) | st.sampled_from(NEW_CATEGORIES + SHARED_TEXTS)
            if name == "Colour":
                pool = st.sampled_from(COLOUR_TEXTS) | pool
        texts[name] = pool
    names = [column["name"] for column in state["schema"]]
    if draw(st.booleans()):
        names.remove("Sales")
    names = draw(st.permutations(names))
    rows = [[draw(texts[name]) for name in names] for _ in range(draw(st.integers(0, 24)))]
    fault = draw(st.sampled_from((None,) * 5 + FAULTS))
    if fault == "missing-column":
        j = draw(st.integers(0, len(names) - 1))
        names = names[:j] + names[j + 1:]
        rows = [row[:j] + row[j + 1:] for row in rows]
    elif fault == "duplicate-column":
        j = draw(st.integers(0, len(names) - 1))
        names = names + [names[j]]
        rows = [row + [row[j]] for row in rows]
    elif fault in ("short-row", "long-row") and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "long-row":
            row.append("3")
        else:
            row.pop()
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(_field(name, False) for name in names)]
    lines += [",".join(_field(text, draw(st.booleans())) for text in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    text = "" if fault == "empty-file" else "".join(line + end for line in lines)
    return ("\ufeff" if draw(st.booleans()) else "") + text


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_predict_matches_the_reference_scorer(model, data, tmp_path_factory):
    """The predictions file holds the reference's lines, or the exit code and
    first stderr line are the reference's, for any block size, memo size
    and CPU count."""
    document = json.loads(model.read_text(encoding="utf-8"))
    text = data.draw(_score_files(document))
    block_rows = data.draw(st.sampled_from([1, 2, 3, 5, 8]))
    memo_texts = data.draw(st.sampled_from([1, 2, 3, 4096]))
    cpus = data.draw(st.sampled_from([1, 2]))
    root = tmp_path_factory.mktemp("score")
    (root / "input.csv").write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)  # errors name the CSV as given: input.csv
        patch.setattr(cli, "BLOCK_ROWS", block_rows)
        patch.setattr(data_model, "MEMO_TEXTS", memo_texts)
        patch.setattr(cli, "_usable_cpus", lambda: cpus)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["predict", "--model", str(model), "--data", "input.csv", "--out", "predictions.csv"])
    try:
        expected = reference_predict(text, document)
    except Rejected as rejected:
        assert (code, err.getvalue().splitlines()[:1]) == (rejected.code, [rejected.line])
    else:
        assert code == 0, err.getvalue()
        assert (root / "predictions.csv").read_text(encoding="utf-8").splitlines() == expected
