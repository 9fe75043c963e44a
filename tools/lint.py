#!/usr/bin/env python3
"""Repo-specific lint rules the compiler cannot enforce.

Run from the repo root (the `lint` CMake target does):

    python3 tools/lint.py             # check, exit 1 on findings
    python3 tools/lint.py --list      # print the rules and exit
    python3 tools/lint.py --self-test # plant violations in a scratch tree,
                                      # assert the rules catch them and the
                                      # real tree stays clean

Rules:

  raw-thread      std::thread may only be constructed inside
                  src/core/thread_pool.* — everything else goes through the
                  ThreadPool so the tracer sees it and shutdown joins it.
  unseeded-rng    rand()/srand()/std::random_device are banned everywhere:
                  the determinism contract (tests/test_determinism_golden)
                  requires every random stream to flow from core::Rng with
                  an explicit seed. core/rng.* is the one sanctioned home.
  iostream-core   <iostream> is banned in src/core/: its static init and
                  sync-with-stdio cost land in every binary, and the hot
                  paths log through printf-style tracing instead.
  bench-trace     every bench/*.cpp must accept --trace, either by
                  constructing bench_common.hpp's ScopedTrace or by parsing
                  the flag itself — untraceable benches are unprofilable.
  atomic-write    non-append fopen()/std::ofstream writes in src/ must go
                  through core::AtomicFile / core::atomic_write_file
                  (src/core/io.* is the sanctioned home): a direct write
                  torn by a crash corrupts the run artifact it replaces.
                  Read-mode opens ("r"/"rb") and append journals ("a") are
                  exempt.
  serve-no-tape   src/serve/ is the tape-free inference path: it may not
                  include ag/, nn/ or ckpt/ headers (ckpt restores into live
                  nn::Module state; the container codec serving shares with
                  it lives in core/). `ag::` / `nn::` tokens in
                  code are banned (comments may reference them), and
                  src/serve/CMakeLists.txt may not link legw_ag, legw_nn, or
                  legw_ckpt. This makes the "serving never touches the
                  autograd tape" guarantee a build-time property instead of
                  a code-review hope.
  raw-mutex       std::mutex / lock_guard / unique_lock / scoped_lock /
                  condition_variable / call_once are banned in src/ outside
                  core/thread_annotations.hpp and core/mutex.hpp: every lock
                  goes through core::Mutex / core::MutexLock / core::CondVar
                  so the Clang thread-safety analysis (`analyze` preset) sees
                  the whole protocol. Comments may name the std types.
  discarded-status status-returning I/O calls (AtomicFile::commit,
                  core::atomic_write_file, ckpt save/load/load_image/
                  maybe_save/save_now/bless) may not appear as bare
                  expression statements in src/: a dropped Status turns a
                  failed write into silent corruption discovered steps
                  later. Assign it, branch on it, or discard explicitly
                  with `(void)` plus a comment. Backs up the
                  [[nodiscard]] attributes for builds that don't promote
                  the warning to an error.
  counter-doc     every counter name passed as a string literal at a count
                  site in src/ (`core::count("name", ...)` or a
                  `core::counter("name")` slot lookup) must appear, in
                  backticks, in docs/OBSERVABILITY.md, so the documented
                  counter list cannot drift from the registry.

A finding can be waived where the rule's intent is genuinely inapplicable by
putting `lint-allow: <rule>` in a comment on the offending line or one of
the three lines above it, with a justification.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SOURCE_DIRS = ("src", "bench", "examples", "tests", "tools")
CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}

ALLOW_RE = re.compile(r"lint-allow:\s*([\w-]+)")

# (rule, regex) pairs scanned per line. The regexes deliberately match
# constructions/usages, not the tokens inside strings-free C++ well enough
# for this codebase (no generated code, no macros hiding threads).
RAW_THREAD_RE = re.compile(r"\bstd::thread\b(?!::hardware_concurrency)")
UNSEEDED_RNG_RE = re.compile(r"\b(?:s?rand\s*\(|std::random_device\b)")
IOSTREAM_RE = re.compile(r'#\s*include\s*[<"]iostream[>"]')
TRACE_RE = re.compile(r"ScopedTrace|--trace")
# Write-mode opens: fopen(..., "w"/"wb"/"w+") and ofstream construction.
# Append mode ("a") is exempt — the telemetry journal appends records and a
# torn tail line is detected by its reader; truncate-then-write is the
# dangerous shape.
FOPEN_WRITE_RE = re.compile(r'\bfopen\s*\([^;]*,\s*"w[b+]?"\s*\)')
OFSTREAM_RE = re.compile(r"\bstd::ofstream\b")
# serve-no-tape: headers that drag the tape/training stack into serving.
SERVE_INCLUDE_RE = re.compile(r'#\s*include\s*"(?:ag/|nn/|ckpt/)')
# Token usage is checked on comment-stripped text so doc comments may still
# say "mirrors ag::add_bias" without tripping the rule.
SERVE_TOKEN_RE = re.compile(r"\b(?:ag|nn)::")
SERVE_LINK_RE = re.compile(r"\blegw_(?:ag|nn|ckpt)\b")
# raw-mutex: the std locking vocabulary, checked on comment-stripped text so
# docs may still say "the std::lock_guard replacement". The annotated
# wrappers themselves (core/mutex.hpp, core/thread_annotations.hpp) are the
# sanctioned home.
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?|call_once|once_flag)\b")
RAW_MUTEX_EXEMPT = ("src/core/mutex.hpp", "src/core/thread_annotations.hpp")
# discarded-status: a Status/Result-returning I/O call as a bare expression
# statement. Anchoring at the start of the (comment-stripped) line means
# assignments (`auto r = f.commit();`), explicit discards (`(void)x.save(...)`)
# and branches (`if (x.commit() ...)`) never match — only the
# fire-and-forget shape does (a statement-start check filters continuation
# lines of multi-line assignments). Checked in src/ where a dropped write
# error silently corrupts run artifacts. `load` is special-cased to
# namespace-qualified/free calls only, so std::atomic's `x.load(...)`
# member never matches.
DISCARDED_STATUS_RE = re.compile(
    r"^\s*(?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*"
    r"(?:commit|atomic_write_file|save|load_image|maybe_save|save_now|"
    r"bless)\s*\(")
DISCARDED_LOAD_RE = re.compile(r"^\s*(?:[A-Za-z_]\w*::\s*)*load\s*\(")
# counter-doc: a literal counter name at a count site. The lookbehind keeps
# member calls such as `map.count("key")` out.
COUNT_SITE_RE = re.compile(
    r'(?<![\w.>])(?:core::)?count(?:er)?\s*\(\s*"([^"]+)"')
COUNTER_DOC = Path("docs") / "OBSERVABILITY.md"


def allowed(lines: list[str], idx: int, rule: str) -> bool:
    for back in range(max(0, idx - 3), idx + 1):
        m = ALLOW_RE.search(lines[back])
        if m and m.group(1) == rule:
            return True
    return False


def strip_line_comment(line: str, marker: str) -> str:
    pos = line.find(marker)
    return line if pos < 0 else line[:pos]


def statement_start(lines: list[str], idx: int) -> bool:
    """True when line idx begins a new statement: the previous substantive
    line ended one (`;`, `{`, `}`). Filters continuation lines such as the
    value half of a multi-line assignment."""
    for back in range(idx - 1, -1, -1):
        prev = strip_line_comment(lines[back], "//").strip()
        if not prev or prev.startswith("#") or prev.startswith("*") \
                or prev.startswith("/*") or prev.endswith("*/"):
            continue
        return prev[-1] in ";{}"
    return True


def iter_sources(root: Path) -> list[Path]:
    out = []
    for d in SOURCE_DIRS:
        sub = root / d
        if sub.is_dir():
            out.extend(p for p in sorted(sub.rglob("*"))
                       if p.suffix in CPP_SUFFIXES)
    return out


def lint(root: Path = REPO) -> list[str]:
    findings: list[str] = []

    def report(path: Path, lineno: int, rule: str, msg: str) -> None:
        rel = path.relative_to(root)
        findings.append(f"{rel}:{lineno}: [{rule}] {msg}")

    doc_path = root / COUNTER_DOC
    counter_doc = (doc_path.read_text(encoding="utf-8", errors="replace")
                   if doc_path.is_file() else "")

    for path in iter_sources(root):
        rel = path.relative_to(root).as_posix()
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        in_thread_pool = rel.startswith("src/core/thread_pool")
        in_rng = rel.startswith("src/core/rng")
        is_lint_py_peer = rel.startswith("tools/")
        in_serve = rel.startswith("src/serve/")
        for i, line in enumerate(lines):
            lineno = i + 1
            if not in_thread_pool and RAW_THREAD_RE.search(line):
                if not allowed(lines, i, "raw-thread"):
                    report(path, lineno, "raw-thread",
                           "raw std::thread outside core/thread_pool; "
                           "use core::ThreadPool")
            if not in_rng and not is_lint_py_peer and UNSEEDED_RNG_RE.search(line):
                if not allowed(lines, i, "unseeded-rng"):
                    report(path, lineno, "unseeded-rng",
                           "unseeded RNG; use core::Rng with an explicit seed")
            if rel.startswith("src/core/") and IOSTREAM_RE.search(line):
                if not allowed(lines, i, "iostream-core"):
                    report(path, lineno, "iostream-core",
                           "<iostream> in core/ hot-path code; use cstdio")
            if (rel.startswith("src/") and not rel.startswith("src/core/io.")
                    and (FOPEN_WRITE_RE.search(line)
                         or OFSTREAM_RE.search(line))):
                if not allowed(lines, i, "atomic-write"):
                    report(path, lineno, "atomic-write",
                           "direct write-mode open in src/; publish run "
                           "artifacts via core::AtomicFile / "
                           "core::atomic_write_file")
            if (rel.startswith("src/") and rel not in RAW_MUTEX_EXEMPT
                    and RAW_MUTEX_RE.search(strip_line_comment(line, "//"))):
                if not allowed(lines, i, "raw-mutex"):
                    report(path, lineno, "raw-mutex",
                           "raw std mutex/lock in src/; use core::Mutex / "
                           "core::MutexLock / core::CondVar (core/mutex.hpp) "
                           "so the thread-safety analysis sees the lock")
            code = strip_line_comment(line, "//")
            if (rel.startswith("src/")
                    and (DISCARDED_STATUS_RE.search(code)
                         or DISCARDED_LOAD_RE.search(code))
                    and statement_start(lines, i)):
                if not allowed(lines, i, "discarded-status"):
                    report(path, lineno, "discarded-status",
                           "status-returning I/O call discarded; assign or "
                           "branch on the result, or discard explicitly "
                           "with (void) and a justification")
            if rel.startswith("src/"):
                for m in COUNT_SITE_RE.finditer(code):
                    if (f"`{m.group(1)}`" not in counter_doc
                            and not allowed(lines, i, "counter-doc")):
                        report(path, lineno, "counter-doc",
                               f"counter '{m.group(1)}' is not listed in "
                               f"{COUNTER_DOC.as_posix()}")
            if in_serve:
                if SERVE_INCLUDE_RE.search(line):
                    if not allowed(lines, i, "serve-no-tape"):
                        report(path, lineno, "serve-no-tape",
                               "src/serve/ must stay tape-free: no ag/, nn/, "
                               "or ckpt/ includes")
                elif SERVE_TOKEN_RE.search(strip_line_comment(line, "//")):
                    if not allowed(lines, i, "serve-no-tape"):
                        report(path, lineno, "serve-no-tape",
                               "src/serve/ must stay tape-free: ag:: / nn:: "
                               "usage is banned on the inference path")

    bench_dir = root / "bench"
    if bench_dir.is_dir():
        for path in sorted(bench_dir.glob("*.cpp")):
            text = path.read_text(encoding="utf-8", errors="replace")
            if not TRACE_RE.search(text):
                report(path, 1, "bench-trace",
                       "bench binary does not accept --trace "
                       "(construct bench_common.hpp's ScopedTrace in main)")

    # The no-tape link contract lives in the build file, not a C++ source, so
    # scan it specially (comments after `#` may still name the banned libs).
    serve_cmake = root / "src" / "serve" / "CMakeLists.txt"
    if serve_cmake.is_file():
        lines = serve_cmake.read_text(encoding="utf-8",
                                      errors="replace").splitlines()
        for i, line in enumerate(lines):
            if SERVE_LINK_RE.search(strip_line_comment(line, "#")):
                if not allowed(lines, i, "serve-no-tape"):
                    report(serve_cmake, i + 1, "serve-no-tape",
                           "legw_serve may link only legw_core, legw_mem, "
                           "and legw_obs; legw_ag/legw_nn/legw_ckpt pull "
                           "the tape into serving")

    return findings


def self_test() -> int:
    """Seeded-violation check for EVERY rule: each must fire on a planted bad
    tree, respect its waiver/exemption edges on a planted clean tree, and the
    real repo must be clean. Exits 0 on success, 1 with diagnostics on any
    miss."""
    failures: list[str] = []

    def expect(cond: bool, msg: str) -> None:
        if not cond:
            failures.append(msg)

    with tempfile.TemporaryDirectory(prefix="legw-lint-selftest-") as tmp:
        bad = Path(tmp) / "bad"
        for sub in ("src/serve", "src/core", "src/train", "bench"):
            (bad / sub).mkdir(parents=True)

        # serve-no-tape -------------------------------------------------------
        (bad / "src" / "serve" / "bad.cpp").write_text(
            '#include "ag/ops.hpp"\n'                      # line 1: fires
            '#include "nn/module.hpp"\n'                   # line 2: fires
            '#include "ckpt/checkpoint.hpp"\n'             # line 3: fires
            '#include "ckpt/crc32.hpp"\n'                  # line 4: fires
            '// comment mentioning ag::add_bias is fine\n'  # line 5: quiet
            'void f() { auto v = ag::relu(nn::zeros()); }\n',  # line 6: fires
            encoding="utf-8")
        (bad / "src" / "serve" / "CMakeLists.txt").write_text(
            "# comment naming legw_ag is fine\n"
            "add_library(legw_serve bad.cpp)\n"
            "target_link_libraries(legw_serve PUBLIC legw_core legw_ag)\n",
            encoding="utf-8")
        # raw-thread / unseeded-rng / raw-mutex -------------------------------
        (bad / "src" / "train" / "bad_thread.cpp").write_text(
            '#include <thread>\n'
            'void spawn() { std::thread t([] {}); t.join(); }\n'   # fires
            'int noise() { return rand(); }\n'                     # fires
            '#include <mutex>\n'
            'std::mutex g_mu;\n'                                   # fires
            'void locked() { std::lock_guard<std::mutex> l(g_mu); }\n'  # fires
            '// a comment naming std::mutex is fine\n'             # quiet
            'std::condition_variable g_cv;\n',                     # fires
            encoding="utf-8")
        # iostream-core -------------------------------------------------------
        (bad / "src" / "core" / "bad_io.cpp").write_text(
            '#include <iostream>\n'                                # fires
            'void log() {}\n',
            encoding="utf-8")
        # atomic-write --------------------------------------------------------
        (bad / "src" / "train" / "bad_write.cpp").write_text(
            '#include <cstdio>\n'
            'void save() { std::FILE* f = fopen("out.bin", "wb"); '  # fires
            'if (f) fclose(f); }\n'
            'void journal() { std::FILE* f = fopen("log.txt", "a"); '  # quiet
            'if (f) fclose(f); }\n',
            encoding="utf-8")
        # bench-trace ---------------------------------------------------------
        (bad / "bench" / "bad_bench.cpp").write_text(
            'int main() { return 0; }\n',                          # fires
            encoding="utf-8")
        # discarded-status ----------------------------------------------------
        (bad / "src" / "train" / "bad_status.cpp").write_text(
            'void f(core::AtomicFile& af, ckpt::CheckpointManager& mgr) {\n'
            '  af.commit();\n'                                     # fires
            '  core::atomic_write_file("p", "x");\n'               # fires
            '  mgr.bless(3);\n'                                    # fires
            '  const auto r = af.commit();\n'                      # quiet
            '  (void)mgr.bless(4);\n'                              # quiet
            '  if (af.commit() == core::Status::kOk) {}\n'         # quiet
            '  // mgr.save_now(state); — commentary is fine\n'     # quiet
            '  std::atomic<int> a{0};\n'
            '  a.load();\n'                                        # quiet
            '  const auto img =\n'
            '      ckpt::load_image(s, image, "label");\n'         # quiet
            '  load(s, "p");\n'                                    # fires
            '}\n',
            encoding="utf-8")

        # counter-doc ---------------------------------------------------------
        (bad / "docs").mkdir()
        (bad / "docs" / "OBSERVABILITY.md").write_text(
            "Counters: `documented.count`.\n", encoding="utf-8")
        (bad / "src" / "train" / "bad_counter.cpp").write_text(
            'void f(std::map<std::string, int>& m) {\n'
            '  core::count("documented.count", 1);\n'             # quiet
            '  core::count("undocumented.count", 1);\n'           # fires
            '  auto& slot = counter("undocumented.slot");\n'      # fires
            '  (void)m.count("undocumented.key");\n'              # quiet
            '  // core::count("commented.out", 1);\n'             # quiet
            '}\n',
            encoding="utf-8")

        found = lint(bad)

        def fired(rule: str, at: str) -> bool:
            return any(f"[{rule}]" in f and at in f for f in found)

        expect(fired("serve-no-tape", "bad.cpp:1:"), "ag/ include not caught")
        expect(fired("serve-no-tape", "bad.cpp:2:"), "nn/ include not caught")
        expect(fired("serve-no-tape", "bad.cpp:3:"),
               "ckpt/checkpoint include not caught")
        expect(fired("serve-no-tape", "bad.cpp:4:"),
               "ckpt/ header other than checkpoint.hpp not caught")
        expect(not fired("serve-no-tape", "bad.cpp:5:"),
               "comment-only ag:: wrongly flagged")
        expect(fired("serve-no-tape", "bad.cpp:6:"),
               "ag::/nn:: code token not caught")
        expect(fired("serve-no-tape", "CMakeLists.txt:3:"),
               "legw_ag link not caught")
        expect(not fired("serve-no-tape", "CMakeLists.txt:1:"),
               "CMake comment naming legw_ag wrongly flagged")
        expect(fired("raw-thread", "bad_thread.cpp:2:"),
               "raw std::thread not caught")
        expect(fired("unseeded-rng", "bad_thread.cpp:3:"),
               "rand() not caught")
        expect(fired("raw-mutex", "bad_thread.cpp:5:"),
               "std::mutex declaration not caught")
        expect(fired("raw-mutex", "bad_thread.cpp:6:"),
               "std::lock_guard not caught")
        expect(not fired("raw-mutex", "bad_thread.cpp:7:"),
               "comment-only std::mutex wrongly flagged")
        expect(fired("raw-mutex", "bad_thread.cpp:8:"),
               "std::condition_variable not caught")
        expect(fired("iostream-core", "bad_io.cpp:1:"),
               "<iostream> in core/ not caught")
        expect(fired("atomic-write", "bad_write.cpp:2:"),
               'fopen "wb" not caught')
        expect(not fired("atomic-write", "bad_write.cpp:3:"),
               'append-mode fopen "a" wrongly flagged')
        expect(fired("bench-trace", "bad_bench.cpp:1:"),
               "bench without --trace not caught")
        expect(fired("discarded-status", "bad_status.cpp:2:"),
               "discarded AtomicFile::commit not caught")
        expect(fired("discarded-status", "bad_status.cpp:3:"),
               "discarded atomic_write_file not caught")
        expect(fired("discarded-status", "bad_status.cpp:4:"),
               "discarded bless not caught")
        expect(not fired("discarded-status", "bad_status.cpp:5:"),
               "assigned commit wrongly flagged")
        expect(not fired("discarded-status", "bad_status.cpp:6:"),
               "(void) discard wrongly flagged")
        expect(not fired("discarded-status", "bad_status.cpp:7:"),
               "branched-on commit wrongly flagged")
        expect(not fired("discarded-status", "bad_status.cpp:8:"),
               "comment-only save_now wrongly flagged")
        expect(not fired("discarded-status", "bad_status.cpp:10:"),
               "std::atomic load() member wrongly flagged")
        expect(not fired("discarded-status", "bad_status.cpp:12:"),
               "multi-line assignment continuation wrongly flagged")
        expect(fired("discarded-status", "bad_status.cpp:13:"),
               "discarded free ckpt load not caught")
        expect(not fired("counter-doc", "bad_counter.cpp:2:"),
               "documented counter wrongly flagged")
        expect(fired("counter-doc", "bad_counter.cpp:3:"),
               "undocumented core::count name not caught")
        expect(fired("counter-doc", "bad_counter.cpp:4:"),
               "undocumented core::counter slot name not caught")
        expect(not fired("counter-doc", "bad_counter.cpp:5:"),
               "map.count member call wrongly flagged")
        expect(not fired("counter-doc", "bad_counter.cpp:6:"),
               "commented-out count site wrongly flagged")

        # Clean tree: waivers and sanctioned homes must stay quiet -----------
        clean = Path(tmp) / "clean"
        for sub in ("src/serve", "src/core", "src/train", "bench"):
            (clean / sub).mkdir(parents=True)
        (clean / "src" / "serve" / "good.cpp").write_text(
            '#include "core/container.hpp"\n'
            '#include "core/tensor.hpp"\n'
            '// replicates ag::lstm_cell forward without the tape\n'
            'void g() { (void)legw::core::crc32(nullptr, 0); }\n',
            encoding="utf-8")
        (clean / "src" / "serve" / "CMakeLists.txt").write_text(
            "add_library(legw_serve good.cpp)\n"
            "target_link_libraries(legw_serve PUBLIC legw_core legw_mem "
            "legw_obs)\n",
            encoding="utf-8")
        # The sanctioned homes for std::mutex / std::thread, plus explicit
        # waivers; none of these may fire.
        (clean / "src" / "core" / "mutex.hpp").write_text(
            '#include <mutex>\n'
            'class Mutex { std::mutex mu_; };\n',
            encoding="utf-8")
        (clean / "src" / "core" / "thread_pool.cpp").write_text(
            '#include <thread>\n'
            'void pool() { std::thread t([] {}); t.join(); }\n',
            encoding="utf-8")
        (clean / "src" / "train" / "waived.cpp").write_text(
            '// lint-allow: raw-thread — dedicated watchdog, joined at exit\n'
            'void w() { std::thread t([] {}); t.join(); }\n'
            '// lint-allow: raw-mutex — interop with a C library callback\n'
            'std::mutex g_interop_mu;\n'
            '// lint-allow: discarded-status — best-effort cleanup on exit\n'
            'void bye(core::AtomicFile& af) { af.commit(); }\n',
            encoding="utf-8")
        (clean / "bench" / "good_bench.cpp").write_text(
            '#include "bench_common.hpp"\n'
            'int main(int argc, char** argv) {\n'
            '  bench::ScopedTrace trace(argc, argv);\n'
            '  return 0;\n'
            '}\n',
            encoding="utf-8")
        stray = lint(clean)
        expect(not stray, f"clean tree flagged: {stray}")

    real = lint(REPO)
    expect(not real, f"real tree has findings: {real}")

    if failures:
        for msg in failures:
            print(f"lint --self-test: FAIL: {msg}", file=sys.stderr)
        return 1
    print("lint --self-test: ok")
    return 0


def main(argv: list[str]) -> int:
    if "--list" in argv:
        print(__doc__)
        return 0
    if "--self-test" in argv:
        return self_test()
    findings = lint()
    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
