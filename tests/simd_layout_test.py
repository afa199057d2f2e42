#!/usr/bin/env python3
"""Code-layout guard for the SIMD dispatch tiers, read from a linked binary.

Two properties of src/linalg that no unit test can see, because the kernels
compute the same bits either way:

 - every tier's batch kernel (`KernelImpl<Policy>::*Batch`) starts on a
   64-byte boundary. The tiers are compiled with -falign-functions=64; at
   the default 16-byte alignment an unrelated edit elsewhere in the library
   could move the AVX2 kernel's start and cost it a third of its speed.
 - the canonical row kernels (`qcluster::linalg::simd::internal::*RowRef`)
   have internal linkage: local symbols, one copy per tier. A weak or global
   row kernel is shared by every tier's table, and the linker may keep the
   copy compiled with -mavx2, which the scalar tier would then run.

Usage: simd_layout_test.py <path-to-nm> <path-to-binary>
(ctest passes nm and the linked simd_parity_test.)
"""

import re
import subprocess
import sys

ALIGNMENT = 64
ROW_KERNEL_PREFIX = "qcluster::linalg::simd::internal::"
# `...::KernelImpl<Policy>::NameBatch(args)`; clone suffixes such as
# " [clone .cold]" are split-off pieces, not entry points, and do not match.
BATCH_RE = re.compile(r"::KernelImpl<(.*)>::(\w+Batch)\([^()]*\)$")
ROW_RE = re.compile(r"::(\w+RowRef)\([^()]*\)$")


def read_symbols(nm, binary):
    """Yields (address, type letter, demangled name) of defined symbols."""
    out = subprocess.run([nm, "-C", "--defined-only", binary],
                         check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[0]:
            yield int(parts[0], 16), parts[1], parts[2]


def main():
    if len(sys.argv) != 3:
        print("usage: simd_layout_test.py <nm> <binary>", file=sys.stderr)
        return 2
    nm, binary = sys.argv[1], sys.argv[2]
    problems = []
    batch = 0
    rows = 0
    for address, kind, name in read_symbols(nm, binary):
        m = BATCH_RE.search(name)
        if m and kind in "tT":
            batch += 1
            if address % ALIGNMENT:
                problems.append("%s::%s starts at %#x, %d mod %d" % (
                    m.group(1).rsplit("::", 1)[-1], m.group(2), address,
                    address % ALIGNMENT, ALIGNMENT))
        m = ROW_RE.search(name)
        if m and name.startswith(ROW_KERNEL_PREFIX):
            rows += 1
            # Local symbols have lower-case types; w/v are weak, u unique.
            if not kind.islower() or kind in "wvu":
                problems.append("%s is a %s symbol (type %s), not local" % (
                    m.group(1), "weak" if kind in "WwVv" else "global",
                    kind))
    if batch == 0 or rows == 0:
        problems.append("found %d batch and %d row kernel symbols; is the "
                        "binary stripped?" % (batch, rows))
    for p in problems:
        print("FAIL  " + p)
    print("simd_layout: %d batch kernels, %d row kernel copies: %s" % (
        batch, rows, "FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
