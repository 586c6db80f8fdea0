#!/usr/bin/env python
"""Documentation checker: links resolve, snippets parse, commands run.

Three passes over every tracked markdown page (README plus ``docs/``):

1. **Links** — every relative markdown link target must exist on disk
   (external ``http(s)``/``mailto`` links and pure ``#anchor`` links are
   skipped).
2. **Snippets** — every ``repro-sim`` / ``python -m repro`` command in a
   bash fence must parse against the real argparse parser; every
   ``python examples/...`` / ``pytest path`` reference must point at an
   existing file; every ``python`` fence must at least compile.
3. **Execution** (``--run``) — the CLI commands are additionally
   *executed*, per file, in one scratch directory, with run lengths
   clamped so the whole pass stays fast.  Commands within a file run in
   document order, so a later snippet may consume files an earlier one
   wrote (e.g. ``run --metrics`` then ``report``).  Python fences in
   self-contained pages are executed too.

Exit status is non-zero on the first category of failure, with one line
per problem.  Used by ``tests/test_docs.py`` and the CI docs job.
"""

import argparse
import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

DOC_FILES = [
    "README.md",
    "docs/index.md",
    "docs/architecture.md",
    "docs/running.md",
    "docs/observability.md",
    "docs/integrity.md",
    "docs/robustness.md",
    "docs/performance.md",
    "docs/buffer_sharing.md",
    "docs/extending.md",
    "docs/paper_mapping.md",
]

# Pages whose ``python`` fences are self-contained programs (safe to
# exec under --run).  Fences elsewhere are API skeletons or fragments
# and are only compiled.
EXEC_PYTHON_PAGES = {"README.md", "docs/observability.md"}

# Subcommands too slow for the --run pass.
SKIP_RUN_SUBCOMMANDS = {"bench"}

# Run-length clamp appended to simulation commands that don't pin one.
RUN_INSTRUCTIONS = "2000"

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")


def iter_fences(text):
    """Yield ``(language, [lines])`` for each fenced code block."""
    language, body = None, []
    for line in text.splitlines():
        match = FENCE_RE.match(line)
        if match:
            if language is None:
                language, body = match.group(1) or "", []
            else:
                yield language, body
                language, body = None, []
        elif language is not None:
            body.append(line)


def check_links(path, text, problems):
    """Every relative link target must exist on disk."""
    base = os.path.dirname(os.path.join(REPO_ROOT, path))
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = os.path.normpath(os.path.join(base, target.split("#")[0]))
        if not os.path.exists(resolved):
            problems.append(f"{path}: broken link -> {target}")


def shell_commands(text):
    """Extract the commands from every bash fence, joining ``\\`` lines."""
    for language, body in iter_fences(text):
        if language not in ("bash", "sh", "console"):
            continue
        pending = ""
        for line in body:
            line = line.split("  #")[0].rstrip()
            if line.endswith("\\"):
                pending += line[:-1] + " "
                continue
            command = (pending + line).strip()
            pending = ""
            if command and not command.startswith("#"):
                yield command


def cli_argv(command):
    """Return repro-sim argv for ``command``, or None if it isn't one."""
    try:
        tokens = shlex.split(command)
    except ValueError:
        return None
    # Strip VAR=value environment prefixes.
    while tokens and re.fullmatch(r"[A-Z_][A-Z0-9_]*=.*", tokens[0]):
        tokens.pop(0)
    if tokens[:1] == ["repro-sim"]:
        return tokens[1:]
    if tokens[:3] == ["python", "-m", "repro"]:
        return tokens[3:]
    return None


def check_commands(path, text, problems):
    """Bash-fence commands must parse; referenced files must exist."""
    from repro.cli import _build_parser

    parser = _build_parser()
    for command in shell_commands(text):
        argv = cli_argv(command)
        if argv is not None:
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    parser.parse_args(argv)
            except SystemExit as exc:
                if exc.code not in (0, None):
                    problems.append(
                        f"{path}: CLI snippet does not parse: {command}"
                    )
            continue
        try:
            tokens = shlex.split(command)
        except ValueError:
            continue
        while tokens and re.fullmatch(r"[A-Z_][A-Z0-9_]*=.*", tokens[0]):
            tokens.pop(0)
        # python/pytest invocations must reference real files.
        if tokens[:1] in (["python"], ["pytest"]):
            for token in tokens[1:]:
                if token.startswith("-"):
                    break
                if "/" in token and not os.path.exists(
                    os.path.join(REPO_ROOT, token)
                ):
                    problems.append(
                        f"{path}: references missing file: {token}"
                    )


def check_python_fences(path, text, problems):
    """Every python fence must be syntactically valid."""
    for index, (language, body) in enumerate(iter_fences(text)):
        if language != "python":
            continue
        try:
            compile("\n".join(body), f"{path}[fence {index}]", "exec")
        except SyntaxError as exc:
            problems.append(f"{path}: python fence does not compile: {exc}")


def _clamped(argv):
    """Clamp run length on simulation subcommands for the --run pass."""
    if argv and argv[0] in ("run", "sweep", "compare", "check",
                            "trace") and "--instructions" not in argv:
        # `trace compile` and plain `trace` accept it too.  A documented
        # `--sample` command pins its own: the clamp is shorter than one
        # sampling period.
        argv = argv + ["--instructions", RUN_INSTRUCTIONS]
    if (argv and argv[0] == "sweep" and "--no-isolate" not in argv
            and "--timeout" not in argv and "--workers" not in argv):
        # Inline execution is much faster; --timeout and --workers
        # both require process isolation.
        argv = argv + ["--no-isolate"]
    return argv


def run_commands(path, text, problems):
    """Execute the page's CLI commands (and runnable python fences)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    with tempfile.TemporaryDirectory() as workdir:
        for command in shell_commands(text):
            argv = cli_argv(command)
            if argv is None or (argv and argv[0] in SKIP_RUN_SUBCOMMANDS):
                continue
            proc = subprocess.run(
                [sys.executable, "-m", "repro"] + _clamped(argv),
                cwd=workdir, env=env, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                problems.append(
                    f"{path}: command failed ({proc.returncode}): {command}\n"
                    f"    {proc.stderr.strip().splitlines()[-1:] or ['']}"
                )
        if path not in EXEC_PYTHON_PAGES:
            return
        for index, (language, body) in enumerate(iter_fences(text)):
            if language != "python":
                continue
            source = "\n".join(body)
            # Keep doc examples honest but fast.
            source = re.sub(r"\b\d{2,3}_000\b", "4_000", source)
            proc = subprocess.run(
                [sys.executable, "-c", source],
                cwd=workdir, env=env, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                problems.append(
                    f"{path}: python fence {index} failed:\n"
                    f"    {proc.stderr.strip().splitlines()[-1:] or ['']}"
                )


def main(argv=None):
    """Run the requested passes; return 0 when the docs are clean."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--run", action="store_true",
        help="also execute CLI commands and runnable python fences",
    )
    args = parser.parse_args(argv)

    problems = []
    for path in DOC_FILES:
        full = os.path.join(REPO_ROOT, path)
        if not os.path.exists(full):
            problems.append(f"{path}: documented page is missing")
            continue
        text = open(full, encoding="utf-8").read()
        check_links(path, text, problems)
        check_commands(path, text, problems)
        check_python_fences(path, text, problems)
        if args.run:
            run_commands(path, text, problems)

    for problem in problems:
        print(problem, file=sys.stderr)
    checked = "links, snippets, commands" if args.run else "links, snippets"
    if not problems:
        print(f"docs OK ({len(DOC_FILES)} pages; {checked})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
