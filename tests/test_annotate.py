"""Annotation pipeline: prompts, parsing, judging, filtering, remote clients."""

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace

import numpy as np
import pytest

from cirlite import annotate as annotate_mod
from cirlite.annotate import (
    AnnotateError,
    EndpointError,
    JudgeError,
    MockGenerator,
    MockJudge,
    ParseError,
    RemoteGenerator,
    RemoteJudge,
    annotate_triplets,
    build_annotation_prompt,
    filter_annotations,
    judge_annotation,
    parse_structured_output,
)
from cirlite.data import CoTAnnotation, Triplet


def make_triplet(**overrides):
    base = dict(
        pair_id="p0",
        reference_id="a",
        modification_text="addred dropblue",
        target_id="b",
        reference_descriptor="item with blue round",
        target_descriptor="item with round red",
    )
    base.update(overrides)
    return Triplet(**base)


# ---------------------------------------------------------------------------
# Prompts
# ---------------------------------------------------------------------------

def test_prompt_contains_each_marker_once():
    prompt = build_annotation_prompt(make_triplet())
    for marker in ("[CAPTION]", "[REASONING]", "[CONCLUSION]"):
        assert prompt.count(marker) == 1


def test_prompt_embeds_descriptor_and_modification():
    prompt = build_annotation_prompt(make_triplet())
    assert "item with blue round" in prompt
    assert "addred dropblue" in prompt


def test_prompt_rejects_empty_modification():
    with pytest.raises(AnnotateError, match="empty modification"):
        build_annotation_prompt(make_triplet(modification_text="  ", reference_descriptor="item"))


def test_prompt_rejects_a_marker_in_the_descriptor():
    with pytest.raises(AnnotateError, match=r"prompt must contain \[CAPTION\] exactly once"):
        build_annotation_prompt(make_triplet(reference_descriptor="item [CAPTION] blue"))


def test_prompt_deterministic():
    a = build_annotation_prompt(make_triplet())
    b = build_annotation_prompt(make_triplet())
    assert a == b


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

WELL_FORMED = """[CAPTION]
a blue round item
[REASONING]
1. first step
2. second step
[CONCLUSION]
a red round item
"""


def test_parse_well_formed():
    ann = parse_structured_output(WELL_FORMED, pair_id="p0")
    assert ann.caption == "a blue round item"
    assert ann.reasoning_steps == ["first step", "second step"]
    assert ann.conclusion == "a red round item"
    assert len(ann.reasoning_steps) >= 1
    assert not ann.accepted and ann.judge_scores == []


def test_parse_missing_conclusion_marker():
    with pytest.raises(ParseError, match=r"missing section marker \[CONCLUSION\]"):
        parse_structured_output("[CAPTION]\nx\n[REASONING]\ny\n")


def test_parse_out_of_order_markers():
    text = "[REASONING]\ny\n[CAPTION]\nx\n[CONCLUSION]\nz\n"
    with pytest.raises(ParseError, match="out of order"):
        parse_structured_output(text)


def test_parse_duplicated_marker():
    with pytest.raises(ParseError, match="appears 2 times"):
        parse_structured_output("[CAPTION]\n[CAPTION]\n[REASONING]\n[CONCLUSION]\nz")


def test_parse_empty_conclusion():
    with pytest.raises(ParseError, match="empty conclusion"):
        parse_structured_output("[CAPTION]\nx\n[REASONING]\ny\n[CONCLUSION]\n   ")


def test_parse_ignores_preamble_chatter():
    ann = parse_structured_output("Sure, here you go!\n" + WELL_FORMED)
    assert ann.caption == "a blue round item"


def format_annotation(a):
    """Canonical three-section text of an annotation, numbered steps."""
    steps = [f"{i}. {step}" for i, step in enumerate(a.reasoning_steps, start=1)]
    return "\n".join(["[CAPTION]", a.caption, "[REASONING]", *steps,
                      "[CONCLUSION]", a.conclusion]) + "\n"


def test_parse_format_roundtrip_random():
    rng = np.random.default_rng(0)
    words = ["red", "blue", "round", "item", "bag", "strap", "zip"]
    for trial in range(50):
        pick = lambda n: " ".join(rng.choice(words, size=n))
        ann = CoTAnnotation(
            pair_id=f"p{trial}",
            caption=pick(3),
            reasoning_steps=[pick(2) for _ in range(int(rng.integers(1, 5)))],
            conclusion=pick(4),
        )
        assert parse_structured_output(format_annotation(ann), ann.pair_id) == ann


def test_format_parse_is_canonicalizing():
    messy = "[CAPTION]\n  padded caption \n[REASONING]\n- bullet one\n\n2) two\n[CONCLUSION]\n  done \n"
    once = format_annotation(parse_structured_output(messy, "p"))
    twice = format_annotation(parse_structured_output(once, "p"))
    assert once == twice


# ---------------------------------------------------------------------------
# Mock generator
# ---------------------------------------------------------------------------

def test_mock_output_always_parseable():
    rng = np.random.default_rng(1)
    for trial in range(30):
        t = make_triplet(modification_text="addred dropblue" if trial % 2 else "addtall")
        prompt = build_annotation_prompt(t)
        ann = parse_structured_output(MockGenerator(int(rng.integers(1000))).generate(prompt))
        assert ann.conclusion


def test_mock_deterministic():
    prompt = build_annotation_prompt(make_triplet())
    assert MockGenerator(7).generate(prompt) == MockGenerator(7).generate(prompt)


def test_mock_applies_add_and_drop():
    prompt = build_annotation_prompt(make_triplet())
    ann = parse_structured_output(MockGenerator(0).generate(prompt))
    words = ann.conclusion.split()
    assert "red" in words and "round" in words and "blue" not in words


def test_mock_seed_variation_no_collisions():
    prompt = build_annotation_prompt(make_triplet())
    conclusions = {
        parse_structured_output(MockGenerator(seed).generate(prompt)).conclusion
        for seed in range(1000)
    }
    assert len(conclusions) == 1000


# ---------------------------------------------------------------------------
# Judging
# ---------------------------------------------------------------------------

def annotation(conclusion="item with round red extra"):
    return CoTAnnotation("p0", "cap", ["step"], conclusion)


def test_three_mock_judges_in_range():
    scores = judge_annotation(annotation(), "item with round red", [MockJudge(i) for i in range(3)])
    assert len(scores) == 3 and all(1 <= s <= 5 for s in scores)


def test_judges_deterministic():
    judges = [MockJudge(i) for i in range(3)]
    a = judge_annotation(annotation(), "item with round red", judges)
    b = judge_annotation(annotation(), "item with round red", judges)
    assert a == b


def test_zero_judges_rejected():
    with pytest.raises(JudgeError, match="at least one"):
        judge_annotation(annotation(), "target", [])


def test_judge_failure_carries_index():
    class Boom:
        def score(self, conclusion, target):
            raise RuntimeError("nope")

    with pytest.raises(JudgeError, match="judge 1 failed"):
        judge_annotation(annotation(), "target", [MockJudge(0), Boom()])


def test_out_of_range_judge_rejected():
    class Eleven:
        def score(self, conclusion, target):
            return 11

    with pytest.raises(JudgeError, match="out-of-range"):
        judge_annotation(annotation(), "target", [Eleven()])


@pytest.mark.parametrize("score", [4.7, True, "5"])
def test_judge_score_that_is_not_int_rejected(score):
    # A library judge's score is not truncated or converted: 4.7 is not 4,
    # True is not 1 and "5" is not 5.
    class Loose:
        def score(self, conclusion, target):
            return score

    with pytest.raises(JudgeError, match="judge 1 returned a score that is not an int"):
        judge_annotation(annotation(), "target", [MockJudge(0), Loose()])


def test_good_conclusion_outscores_bad():
    judge = MockJudge(0)
    good = judge.score("item with round red", "item with round red")
    bad = judge.score("completely unrelated text", "item with round red")
    assert good >= 4 and bad <= 2


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def test_filter_rule_examples():
    records = [
        (annotation(), [5, 5, 4]),   # mean 4.67, range 1 -> accept
        (annotation(), [5, 5, 1]),   # mean 3.67, range 4 -> reject
        (annotation(), [4, 4, 4]),   # mean 4.0 boundary, range 0 -> accept
    ]
    accepted, rejected = filter_annotations(records)
    assert [a.judge_scores for a in accepted] == [[5, 5, 4], [4, 4, 4]]
    assert [a.judge_scores for a in rejected] == [[5, 5, 1]]
    assert all(a.accepted for a in accepted)
    assert not any(a.accepted for a in rejected)


def test_filter_partitions_input():
    rng = np.random.default_rng(2)
    records = [
        (annotation(), [int(s) for s in rng.integers(1, 6, size=3)])
        for _ in range(200)
    ]
    accepted, rejected = filter_annotations(records)
    assert len(accepted) + len(rejected) == len(records)


def test_filter_acceptance_monotone_in_scores():
    # Raising one score without increasing the range never flips accept -> reject.
    rng = np.random.default_rng(3)
    for _ in range(300):
        scores = [int(s) for s in rng.integers(1, 6, size=4)]
        accepted, _ = filter_annotations([(annotation(), scores)])
        if not accepted:
            continue
        i = int(rng.integers(4))
        raised = list(scores)
        raised[i] = min(5, raised[i] + 1)
        if max(raised) - min(raised) > max(scores) - min(scores):
            continue
        still_accepted, _ = filter_annotations([(annotation(), raised)])
        assert still_accepted


def test_filter_empty_scores_rejected():
    with pytest.raises(AnnotateError, match="empty score"):
        filter_annotations([(annotation(), [])])


def test_filter_threshold_validation():
    with pytest.raises(AnnotateError):
        filter_annotations([], mean_threshold=0.5)
    with pytest.raises(AnnotateError):
        filter_annotations([], max_range=-1)


def test_unparseable_outputs_counted_not_fatal():
    class Flaky:
        def generate(self, prompt):
            if "dropblue" in prompt:
                return "no markers here at all"
            return MockGenerator(0).generate(prompt)

    triplets = [
        make_triplet(pair_id="p0"),                              # dropblue -> bad
        make_triplet(pair_id="p1", modification_text="addtall"),  # fine
    ]
    anns, skipped = annotate_triplets(triplets, Flaky(), [MockJudge(0)])
    assert skipped == 1
    assert [a.pair_id for a in anns] == ["p1"]


def test_pipeline_pure_function_of_inputs():
    triplets = [make_triplet(pair_id=f"p{i}") for i in range(10)]

    def run(seed):
        generator = MockGenerator(seed)
        judges = [MockJudge(seed + i) for i in range(3)]
        anns, skipped = annotate_triplets(triplets, generator, judges)
        accepted, rejected = filter_annotations([(a, a.judge_scores) for a in anns])
        return anns, skipped, accepted, rejected

    assert run(11) == run(11)
    assert run(11) != run(12)


# ---------------------------------------------------------------------------
# Remote clients (wire format against a local stub)
# ---------------------------------------------------------------------------

# Judge replies served at /score/<name>.
_SCORE_REPLIES = {"float": {"score": 4.7}, "string": {"score": "5"}, "bool": {"score": True},
                  "null": {"score": None}}

# Reply bodies that are not a UTF-8 JSON object.
_RAW_REPLIES = {"int": b"5", "list": b'["text"]', "bad-utf8": b"\xff",
                "huge-int": b"1" + b"0" * 5000}


class _StubHandler(BaseHTTPRequestHandler):
    # POST to /status/<code> answers with that HTTP error status, and to
    # /raw/<name> with the bytes of _RAW_REPLIES[name].
    def do_POST(self):
        self.server.requests += 1
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path.startswith("/status/"):
            self.send_error(int(self.path.rsplit("/", 1)[1]))
            return
        if self.path.startswith("/raw/"):
            reply = _RAW_REPLIES[self.path.rsplit("/", 1)[1]]
        elif self.path.startswith("/score/"):
            reply = _SCORE_REPLIES[self.path.rsplit("/", 1)[1]]
        elif "prompt" in payload:
            reply = {"text": "[CAPTION]\nc\n[REASONING]\n1. s\n[CONCLUSION]\nd"}
        else:
            reply = {"score": 5 if "red" in payload["conclusion"] else 1}
        body = reply if isinstance(reply, bytes) else json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    server.requests = 0
    # A short poll keeps shutdown() from waiting out serve_forever's
    # default 0.5 s poll on every teardown.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def stub_server(stub):
    return f"http://127.0.0.1:{stub.server_port}/"


def test_remote_generator_wire_format(stub_server):
    text = RemoteGenerator(stub_server).generate("any prompt")
    ann = parse_structured_output(text)
    assert ann.conclusion == "d"


def test_remote_judge_wire_format(stub_server):
    assert RemoteJudge(stub_server).score("red item", "target") == 5
    assert RemoteJudge(stub_server).score("other", "target") == 1


def test_remote_endpoint_failure():
    client = RemoteGenerator("http://127.0.0.1:9/", timeout=0.2, retries=1)
    with pytest.raises(EndpointError, match="failed"):
        client.generate("prompt")


@pytest.mark.parametrize("status", [400, 404, 422])
def test_remote_client_4xx_fails_without_retry(stub, stub_server, status):
    judge = RemoteJudge(f"{stub_server}status/{status}", timeout=5.0, retries=2)
    with pytest.raises(EndpointError, match=f"HTTP {status}"):
        judge.score("red item", "target")
    assert stub.requests == 1


@pytest.mark.parametrize("status", [503, 408, 429])
def test_remote_client_retryable_status_is_retried(stub, stub_server, status):
    client = RemoteGenerator(f"{stub_server}status/{status}", timeout=5.0, retries=2)
    with pytest.raises(EndpointError, match=f"failed: HTTP Error {status}"):
        client.generate("prompt")
    assert stub.requests == 3


@pytest.mark.parametrize("name", sorted(_SCORE_REPLIES))
def test_remote_judge_rejects_score_that_is_not_int(stub, stub_server, name):
    judge = RemoteJudge(f"{stub_server}score/{name}", timeout=5.0, retries=2)
    with pytest.raises(EndpointError, match="no integer 'score'"):
        judge.score("red item", "target")
    assert stub.requests == 1


@pytest.mark.parametrize("name", sorted(_RAW_REPLIES))
def test_remote_reply_that_is_not_a_json_object_is_retried(stub, stub_server, monkeypatch,
                                                           name):
    monkeypatch.setattr(annotate_mod.time, "sleep", lambda seconds: None)
    client = RemoteGenerator(f"{stub_server}raw/{name}", timeout=5.0, retries=2)
    expected = "is not a JSON object" if name in ("int", "list") else "is malformed JSON"
    with pytest.raises(EndpointError, match=f"failed: reply {expected}"):
        client.generate("prompt")
    assert stub.requests == 3


@pytest.mark.parametrize("name", sorted(_RAW_REPLIES))
def test_cli_annotate_with_bad_reply_exits_1(stub_server, tmp_path, capsys, name):
    from cirlite.cli import main
    from cirlite.data import write_triplets

    write_triplets([make_triplet()], tmp_path / "t.jsonl")
    code = main(["annotate", "--triplets", str(tmp_path / "t.jsonl"),
                 "--annotations", str(tmp_path / "a.jsonl"),
                 "--generator-endpoint", f"{stub_server}raw/{name}",
                 "--judge-endpoints", stub_server, "--endpoint-retries", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: endpoint ") and err.count("\n") == 1
    assert not (tmp_path / "a.jsonl").exists()


# Replies that break HTTP itself: a status line that is not HTTP, and a
# body shorter than its Content-Length.
_BROKEN_REPLIES = {
    "bad-status-line": b"NOT-HTTP 200 OK\r\n\r\n",
    "short-body": b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                  b"Content-Length: 100\r\n\r\n{\"text\": ",
}


@pytest.fixture()
def raw_stub():
    """A loopback socket that reads each HTTP request and answers it with the
    bytes in raw_stub.reply, then closes the connection."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.01)
    stub = SimpleNamespace(url=f"http://127.0.0.1:{listener.getsockname()[1]}/", reply=b"",
                           requests=0)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn, conn.makefile("rb") as rfile:
                conn.settimeout(5.0)
                length = 0
                while (line := rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                rfile.read(length)
                stub.requests += 1
                conn.sendall(stub.reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield stub
    stop.set()
    thread.join(timeout=5)
    listener.close()
    assert not thread.is_alive()


@pytest.mark.parametrize("name", sorted(_BROKEN_REPLIES))
def test_cli_annotate_with_broken_http_reply_retries_then_exits_1(raw_stub, tmp_path, capsys,
                                                                 monkeypatch, name):
    from cirlite.cli import main
    from cirlite.data import write_triplets

    monkeypatch.setattr(annotate_mod.time, "sleep", lambda seconds: None)
    raw_stub.reply = _BROKEN_REPLIES[name]
    write_triplets([make_triplet()], tmp_path / "t.jsonl")
    code = main(["annotate", "--triplets", str(tmp_path / "t.jsonl"),
                 "--annotations", str(tmp_path / "a.jsonl"),
                 "--generator-endpoint", raw_stub.url, "--judge-endpoints", raw_stub.url,
                 "--endpoint-timeout", "5", "--endpoint-retries", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: endpoint ") and err.count("\n") == 1
    assert raw_stub.requests == 2
    assert not (tmp_path / "a.jsonl").exists()


def test_remote_client_waits_before_each_retry(stub, stub_server, monkeypatch):
    waits = []
    monkeypatch.setattr(annotate_mod.time, "sleep", waits.append)
    client = RemoteGenerator(f"{stub_server}status/503", timeout=5.0, retries=2)
    with pytest.raises(EndpointError, match="HTTP Error 503"):
        client.generate("prompt")
    assert stub.requests == 3
    assert waits == [annotate_mod.RETRY_BASE_S, 2 * annotate_mod.RETRY_BASE_S]


def test_remote_client_wait_is_capped(stub, stub_server, monkeypatch):
    waits = []
    monkeypatch.setattr(annotate_mod.time, "sleep", waits.append)
    monkeypatch.setattr(annotate_mod, "RETRY_CAP_S", 3 * annotate_mod.RETRY_BASE_S)
    client = RemoteGenerator(f"{stub_server}status/503", timeout=5.0, retries=4)
    with pytest.raises(EndpointError, match="HTTP Error 503"):
        client.generate("prompt")
    base = annotate_mod.RETRY_BASE_S
    assert waits == [base, 2 * base, 3 * base, 3 * base]


def test_remote_client_4xx_does_not_wait(stub, stub_server, monkeypatch):
    waits = []
    monkeypatch.setattr(annotate_mod.time, "sleep", waits.append)
    judge = RemoteJudge(f"{stub_server}status/400", timeout=5.0, retries=2)
    with pytest.raises(EndpointError, match="HTTP 400"):
        judge.score("red item", "target")
    assert waits == []


def test_cli_and_library_clients_share_endpoint_defaults():
    from cirlite.cli import RunConfig

    client = RemoteGenerator("http://127.0.0.1:9/")
    cfg = RunConfig()
    assert (cfg.endpoint_timeout, cfg.endpoint_retries) == (client.timeout, client.retries)
    assert (client.timeout, client.retries) == (annotate_mod.DEFAULT_TIMEOUT_S,
                                                annotate_mod.DEFAULT_RETRIES)


def _status_reply(status, retry_after=None):
    header = b"" if retry_after is None else b"Retry-After: " + retry_after + b"\r\n"
    return (b"HTTP/1.1 %d Busy\r\n" % status + header
            + b"Content-Length: 0\r\nConnection: close\r\n\r\n")


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize("retry_after, waits", [
    (b"0", [0.0, 0.0]),
    (b" 1 ", [1.0, 1.0]),
    (b"7", ["cap", "cap"]),
    (b"9" * 5000, ["cap", "cap"]),
    (None, ["base", "2base"]),
    (b"soon", ["base", "2base"]),
    (b"1.5", ["base", "2base"]),
    (b"-1", ["base", "2base"]),
    (b"Wed, 21 Oct 2026 07:28:00 GMT", ["base", "2base"]),
])
def test_retry_after_seconds_sets_the_wait(raw_stub, monkeypatch, status, retry_after, waits):
    # A Retry-After of whole seconds on 429 or 503 is the next wait, capped
    # at RETRY_CAP_S; a missing or malformed one leaves the backoff.
    slept = []
    monkeypatch.setattr(annotate_mod.time, "sleep", slept.append)
    monkeypatch.setattr(annotate_mod, "RETRY_CAP_S", 2.0)
    raw_stub.reply = _status_reply(status, retry_after)
    client = RemoteGenerator(raw_stub.url, timeout=5.0, retries=2)
    with pytest.raises(EndpointError, match=f"HTTP Error {status}"):
        client.generate("prompt")
    base = annotate_mod.RETRY_BASE_S
    named = {"cap": 2.0, "base": base, "2base": 2 * base}
    assert slept == [named.get(w, w) for w in waits]
    assert raw_stub.requests == 3


@pytest.mark.parametrize("status", [500, 408])
def test_retry_after_on_other_statuses_keeps_the_backoff(raw_stub, monkeypatch, status):
    slept = []
    monkeypatch.setattr(annotate_mod.time, "sleep", slept.append)
    raw_stub.reply = _status_reply(status, b"0")
    client = RemoteGenerator(raw_stub.url, timeout=5.0, retries=1)
    with pytest.raises(EndpointError, match=f"HTTP Error {status}"):
        client.generate("prompt")
    assert slept == [annotate_mod.RETRY_BASE_S]
