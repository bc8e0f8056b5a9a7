"""The CLI's behaviour on every sample object, pinned: ``cli_digest`` hashes
argv, exit code, stdout and stderr of 2372 in-process calls, so any change
to what the CLI prints or returns on them changes this line."""

import cli_digest

PINNED = "2372 calls ce064c7163f6893251d37de6ffd126e5a1b388e50e92b60492c5eb87f3ba14af"


def test_cli_digest_is_pinned(monkeypatch, capsys):
    monkeypatch.chdir(cli_digest.ROOT)
    cli_digest.main_digest()
    assert capsys.readouterr().out.strip() == PINNED
