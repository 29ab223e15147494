#!/usr/bin/env python3
"""Markdown hygiene checker for the repo docs (CI: docs-hygiene job).

Checks, per file:
  * every relative link target ([text](path), not http(s)/mailto/#anchor)
    resolves to an existing file or directory relative to the repo root or
    to the linking file's directory;
  * every fenced code block opened with ``` declares a language
    (```sh, ```cpp, ```text, ...), so rendered docs always highlight;
  * fenced code blocks are balanced (no unterminated fence).

Repo-level checks (run whenever the corresponding doc is among the
arguments):
  * EXPERIMENTS.md must mention every bench binary: each bench/bench_*.cc
    stem (`bench_fig10_breakdown`, `bench_ext_simspeed`, ...) has to
    appear literally somewhere in EXPERIMENTS.md, so no bench can land
    without its paper-vs-measured entry;
  * README.md's architecture map must cover every source layer: each
    direct subdirectory of src/ has to appear as `src/<dir>` somewhere in
    README.md;
  * DESIGN.md's span taxonomy must match the phase table: every name in
    kPhaseNames (src/obs/phase.h) has to appear backticked in DESIGN.md,
    and every backticked `a/b` token in the §6 `SpanProfiler` bullet has
    to be a name in that table.

Usage: python3 tools/check_markdown.py FILE.md [FILE.md ...]
Exits non-zero listing every violation; prints a summary when clean.
"""

import glob
import os
import re
import sys

# [text](target) but not ![image](...) nested-paren safe enough for docs;
# reference-style links are rare here and skipped on purpose.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
FENCE_RE = re.compile(r"^(`{3,})(.*)$")

SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def check_file(path, repo_root):
    problems = []
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    in_fence = False
    fence_marker = ""
    fence_open_line = 0
    for lineno, line in enumerate(lines, 1):
        fence = FENCE_RE.match(line.strip())
        if fence:
            if not in_fence:
                in_fence = True
                fence_marker = fence.group(1)
                fence_open_line = lineno
                lang = fence.group(2).strip()
                if not lang:
                    problems.append(
                        f"{path}:{lineno}: fenced code block has no language "
                        "(use ```text for plain output)"
                    )
            elif fence.group(1)[: len(fence_marker)] == fence_marker and not fence.group(2).strip():
                in_fence = False
            continue
        if in_fence:
            continue  # links inside code blocks are not links

        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            target_path = target.split("#", 1)[0]  # strip in-doc anchors
            if not target_path:
                continue
            candidates = [
                os.path.join(repo_root, target_path),
                os.path.join(os.path.dirname(path) or ".", target_path),
            ]
            if not any(os.path.exists(c) for c in candidates):
                problems.append(f"{path}:{lineno}: dead relative link -> {target}")

    if in_fence:
        problems.append(f"{path}:{fence_open_line}: unterminated fenced code block")
    return problems


def check_bench_coverage(experiments_path, repo_root):
    """Every bench/bench_*.cc must be documented in EXPERIMENTS.md."""
    problems = []
    with open(experiments_path, encoding="utf-8") as f:
        text = f.read()
    for src in sorted(glob.glob(os.path.join(repo_root, "bench", "bench_*.cc"))):
        stem = os.path.splitext(os.path.basename(src))[0]
        if stem not in text:
            problems.append(
                f"{experiments_path}: bench/{stem}.cc has no entry "
                f"(mention `{stem}` with its results + regenerate recipe)"
            )
    return problems


def check_readme_architecture_map(readme_path, repo_root):
    """Every src/<dir> layer must appear in README.md's architecture map."""
    problems = []
    with open(readme_path, encoding="utf-8") as f:
        text = f.read()
    src_root = os.path.join(repo_root, "src")
    for entry in sorted(os.listdir(src_root)):
        if not os.path.isdir(os.path.join(src_root, entry)):
            continue
        if f"src/{entry}" not in text:
            problems.append(
                f"{readme_path}: src/{entry} missing from the architecture map"
            )
    return problems


PHASE_TABLE_RE = re.compile(r"kPhaseNames\s*=\s*std::to_array<std::string_view>\(\{(.*?)\}\);", re.S)
SPAN_BULLET_RE = re.compile(r"^\* `SpanProfiler`.*?(?=^\*|^$)", re.S | re.M)
SLASH_TOKEN_RE = re.compile(r"`([a-z_]+/[a-z_]+)`")


def check_design_phase_taxonomy(design_path, repo_root):
    """DESIGN.md §6 must list exactly the phases of src/obs/phase.h."""
    header = os.path.join(repo_root, "src", "obs", "phase.h")
    with open(header, encoding="utf-8") as f:
        table = PHASE_TABLE_RE.search(f.read())
    if table is None:
        return [f"{header}: kPhaseNames table not found"]
    names = re.findall(r'"([^"]+)"', table.group(1))
    with open(design_path, encoding="utf-8") as f:
        text = f.read()
    problems = [
        f"{design_path}: phase `{name}` (src/obs/phase.h) missing from the taxonomy"
        for name in names
        if f"`{name}`" not in text
    ]
    bullet = SPAN_BULLET_RE.search(text)
    if bullet is None:
        return problems + [f"{design_path}: no `SpanProfiler` taxonomy bullet"]
    for token in SLASH_TOKEN_RE.findall(bullet.group(0)):
        if token not in names:
            problems.append(
                f"{design_path}: taxonomy lists `{token}`, which src/obs/phase.h does not define"
            )
    return problems


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    all_problems = []
    for path in argv[1:]:
        if not os.path.exists(path):
            all_problems.append(f"{path}: file not found")
            continue
        all_problems.extend(check_file(path, repo_root))
        name = os.path.basename(path)
        if name == "EXPERIMENTS.md":
            all_problems.extend(check_bench_coverage(path, repo_root))
        elif name == "README.md":
            all_problems.extend(check_readme_architecture_map(path, repo_root))
        elif name == "DESIGN.md":
            all_problems.extend(check_design_phase_taxonomy(path, repo_root))
    if all_problems:
        print("\n".join(all_problems))
        print(f"\nmarkdown hygiene: {len(all_problems)} problem(s)")
        return 1
    print(f"markdown hygiene: {len(argv) - 1} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
