"""The CLI's behaviour on every sample object, pinned: ``cli_digest`` hashes
argv, exit code, stdout and stderr of 3070 in-process calls, so any change
to what the CLI prints or returns on them changes this line."""

import json

import cli_digest

PINNED = "3070 calls 5595999f9a591bc8bf46e034a41bcc2987b4fb3f95532d7994298633f5050d61"


def test_cli_digest_is_pinned(monkeypatch, capsys):
    monkeypatch.chdir(cli_digest.ROOT)
    cli_digest.main_digest()
    assert capsys.readouterr().out.strip() == PINNED


def test_every_json_report_is_sorted_indented_ascii(monkeypatch):
    # the output contract, whatever writes it: each --json report is exactly
    # json.dumps(report, sort_keys=True, indent=2) and one newline
    monkeypatch.chdir(cli_digest.ROOT)
    reports = 0
    for argv in cli_digest.calls():
        if "--json" not in argv and "--js" not in argv:
            continue
        _, code, out, _ = cli_digest.run(argv)
        if out:
            assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", argv
            reports += 1
        else:
            assert code == 2, argv
    # the other 313 --json calls are refused with exit 2
    assert reports == 1203
