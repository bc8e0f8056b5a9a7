"""The CLI's behaviour on every sample object, pinned: ``cli_digest`` hashes
argv, exit code, stdout and stderr of 2336 in-process calls, so any change
to what the CLI prints or returns on them changes this line."""

import cli_digest

PINNED = "2336 calls f35a1a7e9ace19345280669c1977367d99445b28ef423db79dfe115ba9f1ebd5"


def test_cli_digest_is_pinned(monkeypatch, capsys):
    monkeypatch.chdir(cli_digest.ROOT)
    cli_digest.main_digest()
    assert capsys.readouterr().out.strip() == PINNED
