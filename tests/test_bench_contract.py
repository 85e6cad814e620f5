"""The benchmark's workloads against the CLI and config they drive.

Each workload is built as bench/run.py builds it, but no operation runs:
every CLI command it would send must parse, and every config file it
writes must load. A key or flag the benchmark sends and the program no
longer takes fails here, not in a benchmark run.
"""

from functools import partial
from pathlib import Path

from windtree import cli
from windtree.config import load_config

ROOT = Path(__file__).resolve().parent.parent


def test_workload_commands_parse_and_configs_load(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import workloads

    parser = cli.build_parser()
    commands = set()
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(ROOT, 0, tmp_path / name)
        for op in workload.ops:
            if not (isinstance(op.action, partial) and op.action.func is cli.main):
                continue  # an API call, not a command
            args = parser.parse_args(*op.action.args)
            load_config(args.config)
            commands.add(args.command)
    assert commands == {"simulate", "sweep", "fit", "diagnose"}
