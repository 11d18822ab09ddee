#!/usr/bin/env python3
"""Documentation hygiene gate (the CI `docs` job).

Checks, from the repository root:

  1. Every relative Markdown link in README.md, ROADMAP.md and docs/*.md
     resolves to an existing file or directory (anchors and external URLs
     are skipped).
  2. README.md links the architecture and benchmark guides, so they stay
     discoverable from the front page.
  3. CHANGES.md is well-formed: every non-empty line is a `- PR <n>: ...`
     entry (the per-PR changelog), or a `FOUND: ...` / `MENDED: ...` line
     naming a fault seen and not yet mended / since mended.
  4. ISSUE.md, when present, is well-formed: starts with a `# ISSUE` title
     and contains at least one `## ` section.
  5. Every trajectory point (`BENCH_<n>.json` at the root) parses and
     records each BENCHMARK.json workload, with a median for each of
     host_kops_s, setup_s and peak_rss_mb (docs/BENCHMARKS.md gives the
     format).

Exit status: 0 when everything passes, 1 otherwise.
"""

import glob
import json
import os
import re
import sys

# [text](target) -- excluding images' extra ! is fine, they use the same
# (and should resolve the same way).
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_CHECKED_FILES = ["README.md", "ROADMAP.md"]
_REQUIRED_README_LINKS = ["docs/ARCHITECTURE.md", "docs/BENCHMARKS.md"]


def find_markdown_files(root):
    files = [f for f in _CHECKED_FILES if os.path.isfile(os.path.join(root, f))]
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                files.append(os.path.join("docs", name))
    return files


def check_links(root, failures):
    for rel in find_markdown_files(root):
        path = os.path.join(root, rel)
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target_path))
            if not os.path.exists(resolved):
                failures.append(f"{rel}: broken link -> {target}")
            else:
                print(f"ok    {rel}: {target}")


def check_required_readme_links(root, failures):
    readme = os.path.join(root, "README.md")
    if not os.path.isfile(readme):
        failures.append("README.md: missing")
        return
    with open(readme, "r", encoding="utf-8") as f:
        text = f.read()
    for required in _REQUIRED_README_LINKS:
        if required in text:
            print(f"ok    README.md links {required}")
        else:
            failures.append(f"README.md: must link {required}")


def check_changes(root, failures):
    path = os.path.join(root, "CHANGES.md")
    if not os.path.isfile(path):
        failures.append("CHANGES.md: missing")
        return
    entry_re = re.compile(r"^(- PR \d+|FOUND|MENDED): .+")
    bad = 0
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f, 1):
            if not line.strip():
                continue
            if not entry_re.match(line):
                bad += 1
                failures.append(
                    f"CHANGES.md:{i}: expected '- PR <n>: ...', 'FOUND: ...' "
                    f"or 'MENDED: ...', got {line.strip()[:60]!r}")
    if bad == 0:
        print("ok    CHANGES.md entries well-formed")


def check_issue(root, failures):
    path = os.path.join(root, "ISSUE.md")
    if not os.path.isfile(path):
        return  # only present while a PR is in flight
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    before = len(failures)
    if not text.startswith("# ISSUE"):
        failures.append("ISSUE.md: must start with a '# ISSUE' title")
    if "\n## " not in text:
        failures.append("ISSUE.md: must contain at least one '## ' section")
    if len(failures) == before:
        print("ok    ISSUE.md well-formed")


_TRAJECTORY_METRICS = ["host_kops_s", "setup_s", "peak_rss_mb"]


def check_trajectory(root, failures):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        rel = os.path.basename(path)
        try:
            with open(path, encoding="utf-8") as f:
                point = json.load(f)
        except (OSError, ValueError) as e:
            failures.append(f"{rel}: does not parse: {e}")
            continue
        before = len(failures)
        recorded = point.get("workloads") if isinstance(point, dict) else None
        if not isinstance(recorded, dict):
            failures.append(f"{rel}: no 'workloads' object")
            continue
        for w in workloads:
            entry = recorded.get(w)
            if not isinstance(entry, dict):
                failures.append(f"{rel}: workload {w} missing")
                continue
            for m in _TRAJECTORY_METRICS:
                stats = entry.get(m)
                if not (isinstance(stats, dict) and
                        isinstance(stats.get("median"), (int, float))):
                    failures.append(f"{rel}: {w}.{m} has no median")
        if len(failures) == before:
            print(f"ok    {rel} records all {len(workloads)} workloads")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    failures = []
    check_links(root, failures)
    check_required_readme_links(root, failures)
    check_changes(root, failures)
    check_issue(root, failures)
    check_trajectory(root, failures)
    for f in failures:
        print(f"FAIL  {f}")
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
