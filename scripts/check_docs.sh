#!/bin/sh
# Docs gate: every package path (internal/*, cmd/*, examples/*) that
# docs/ARCHITECTURE.md or README.md references must exist in the tree,
# so the architecture docs cannot silently rot as packages move; every
# Test*, Benchmark* and Fuzz* name cited in README.md or docs/*.md must
# be defined in some _test.go file; every package-qualified exported
# identifier cited there (repro.X for the root package) must resolve
# through go doc; and the environment variables in docs/DEPLOYMENT.md
# must match the ones the code reads.
#
# Run from the repository root:  sh scripts/check_docs.sh
set -eu

fail=0
for doc in docs/ARCHITECTURE.md docs/DEPLOYMENT.md README.md; do
    if [ ! -f "$doc" ]; then
        echo "missing $doc"
        fail=1
        continue
    fi
    for ref in $(grep -oE '(internal|cmd|examples)/[a-z0-9_]+' "$doc" | sort -u); do
        if [ ! -d "$ref" ]; then
            echo "$doc references missing package: $ref"
            fail=1
        fi
    done
done

# Every test, benchmark and fuzz target the docs cite must exist, so a
# deleted test cannot leave a stale command or claim behind.
testsrc=$(find . -name '*_test.go' -not -path './.git/*')
# shellcheck disable=SC2086
defined=$(sed -nE 's/^func ((Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*)\(.*/\1/p' $testsrc | sort -u)
for doc in README.md docs/*.md; do
    for name in $(grep -oE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' "$doc" | sort -u); do
        if ! echo "$defined" | grep -qx "$name"; then
            echo "$doc cites $name, which no _test.go file defines"
            fail=1
        fi
    done
done

# Every package-qualified exported identifier the docs cite
# (store.DurabilityOptions.Dir, simpool.UnavailableError, ...) must resolve
# through go doc, which finds types, fields, functions and methods
# offline, so a deleted name cannot leave a stale reference behind. The
# qualifiers are the base names of the packages under internal/.
pkgdirs=$(find internal -name '*.go' -not -name '*_test.go' | sed 's|/[^/]*$||' | sort -u)
pkgnames=$(for d in $pkgdirs; do basename "$d"; done | sort -u | paste -sd'|' -)
for doc in README.md docs/*.md; do
    for ref in $(grep -oE "\b($pkgnames)\.[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)?" "$doc" | sort -u); do
        pkg=${ref%%.*}
        sym=${ref#*.}
        found=0
        for d in $pkgdirs; do
            if [ "$(basename "$d")" = "$pkg" ] && go doc "./$d" "$sym" >/dev/null 2>&1; then
                found=1
                break
            fi
        done
        if [ "$found" -eq 0 ]; then
            echo "$doc cites $ref, which go doc cannot resolve"
            fail=1
        fi
    done
done

# The same for the facade package at the repository root: repro.X
# citations (repro.NewEngine, repro.EvaluatorOptions, ...) must resolve
# through go doc on the root package.
for doc in README.md docs/*.md; do
    for ref in $(grep -oE "\brepro\.[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)?" "$doc" | sort -u); do
        if ! go doc . "${ref#repro.}" >/dev/null 2>&1; then
            echo "$doc cites $ref, which go doc cannot resolve"
            fail=1
        fi
    done
done

# Every EVALD_*/SIMD_* variable the deployment guide documents must be
# read by internal/config or cmd/simd, and every variable read there
# must be documented, so a deleted knob cannot leave a stale row behind.
envdoc=docs/DEPLOYMENT.md
envsrc=$(ls internal/config/*.go cmd/simd/*.go | grep -v '_test\.go$')
documented=$(grep -ohE '(EVALD|SIMD)_[A-Z0-9_]+' "$envdoc" | sort -u)
# shellcheck disable=SC2086
read_in_code=$(grep -ohE '"(EVALD|SIMD)_[A-Z0-9_]+"' $envsrc | tr -d '"' | sort -u)
for v in $documented; do
    if ! echo "$read_in_code" | grep -qx "$v"; then
        echo "$envdoc documents $v, which internal/config and cmd/simd never read"
        fail=1
    fi
done
for v in $read_in_code; do
    if ! echo "$documented" | grep -qx "$v"; then
        echo "$v is read by internal/config or cmd/simd but not documented in $envdoc"
        fail=1
    fi
done

if [ "$fail" -eq 0 ]; then
    echo "docs gate OK"
fi
exit "$fail"
