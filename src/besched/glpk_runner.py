"""Command-line adapter around the GLPK C library.

Usage:  python3 -m besched.glpk_runner MODEL.lp SOLUTION.sol

Reads a CPLEX-LP-format file, solves the MIP with GLPK (simplex plus its
branch-and-cut), and writes GLPK's machine-readable MIP solution format
(``glp_write_mip``), augmented with ``c column <j> <name>`` comment lines so
consumers can address values by variable name at full precision.

The adapter locates ``libglpk`` either on the system or inside the wheel-
vendored library directory shipped with cvxopt.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import glob
import os
import sys

GLP_OPT = 5
GLP_INFEAS = 3
GLP_NOFEAS = 4
GLP_UNBND = 6

GLP_ON = 1


class GlpIocp(ctypes.Structure):
    """Mirror of glp_iocp (stable layout since GLPK 4.57)."""

    _fields_ = [
        ("msg_lev", ctypes.c_int),
        ("br_tech", ctypes.c_int),
        ("bt_tech", ctypes.c_int),
        ("tol_int", ctypes.c_double),
        ("tol_obj", ctypes.c_double),
        ("tm_lim", ctypes.c_int),
        ("out_frq", ctypes.c_int),
        ("out_dly", ctypes.c_int),
        ("cb_func", ctypes.c_void_p),
        ("cb_info", ctypes.c_void_p),
        ("cb_size", ctypes.c_int),
        ("pp_tech", ctypes.c_int),
        ("mip_gap", ctypes.c_double),
        ("mir_cuts", ctypes.c_int),
        ("gmi_cuts", ctypes.c_int),
        ("cov_cuts", ctypes.c_int),
        ("clq_cuts", ctypes.c_int),
        ("presolve", ctypes.c_int),
        ("binarize", ctypes.c_int),
        ("fp_heur", ctypes.c_int),
        ("ps_heur", ctypes.c_int),
        ("ps_tm_lim", ctypes.c_int),
        ("sr_heur", ctypes.c_int),
        ("use_sol", ctypes.c_int),
        ("save_sol", ctypes.c_char_p),
        ("alien", ctypes.c_int),
        ("flip", ctypes.c_int),
        # room for fields added by future GLPK releases; glp_init_iocp only
        # writes up to its own struct size, the rest stays zeroed
        ("reserved", ctypes.c_double * 24),
    ]


def _load_glpk():
    name = ctypes.util.find_library("glpk")
    if name:
        try:
            return ctypes.CDLL(name)
        except OSError:
            pass
    # wheel-vendored copy next to cvxopt (bundled with its own dependencies)
    try:
        import cvxopt
    except ImportError:
        cvxopt = None
    candidates = []
    if cvxopt is not None:
        vendor = os.path.join(os.path.dirname(os.path.dirname(cvxopt.__file__)), "cvxopt.libs")
        candidates = sorted(glob.glob(os.path.join(vendor, "*")))
    lib = None
    pending = list(candidates)
    for _ in range(len(pending) + 1):
        rest = []
        for path in pending:
            try:
                handle = ctypes.CDLL(path, mode=ctypes.RTLD_GLOBAL)
                if "libglpk" in os.path.basename(path):
                    lib = handle
            except OSError:
                rest.append(path)
        if not rest:
            break
        pending = rest
    if lib is None:
        raise OSError("could not locate a loadable libglpk")
    return lib


def solve_lp_file(in_path: str, out_path: str) -> int:
    lib = _load_glpk()
    lib.glp_create_prob.restype = ctypes.c_void_p
    lib.glp_get_col_name.restype = ctypes.c_char_p
    lib.glp_term_out(0)

    prob = ctypes.c_void_p(lib.glp_create_prob())
    if lib.glp_read_lp(prob, None, in_path.encode()) != 0:
        print(f"glpk: failed to read LP file {in_path}", file=sys.stderr)
        return 3

    lib.glp_simplex(prob, None)
    status = lib.glp_get_status(prob)
    if status in (GLP_INFEAS, GLP_NOFEAS):
        with open(out_path, "w") as fh:
            fh.write("c LP relaxation infeasible\ns mip 0 0 n 0\ne o f\n")
        return 0
    if status == GLP_UNBND:
        with open(out_path, "w") as fh:
            fh.write("c LP relaxation unbounded\ns mip 0 0 u 0\ne o f\n")
        return 0
    if status != GLP_OPT:
        print(f"glpk: simplex ended with status {status}", file=sys.stderr)
        return 4

    parm = GlpIocp()
    lib.glp_init_iocp(ctypes.byref(parm))
    parm.mir_cuts = GLP_ON
    parm.gmi_cuts = GLP_ON
    parm.cov_cuts = GLP_ON
    parm.clq_cuts = GLP_ON
    parm.fp_heur = GLP_ON
    rc = lib.glp_intopt(prob, ctypes.byref(parm))
    if rc != 0:
        print(f"glpk: intopt failed with code {rc}", file=sys.stderr)
        return 4
    if lib.glp_write_mip(prob, out_path.encode()) != 0:
        print(f"glpk: cannot write solution to {out_path}", file=sys.stderr)
        return 5

    ncols = lib.glp_get_num_cols(prob)
    names = []
    for j in range(1, ncols + 1):
        raw = lib.glp_get_col_name(prob, j)
        names.append(raw.decode() if raw else f"col{j}")
    with open(out_path) as fh:
        body = fh.readlines()
    insert = 0
    while insert < len(body) and body[insert].startswith("c"):
        insert += 1
    name_lines = [f"c column {j} {n}\n" for j, n in enumerate(names, start=1)]
    with open(out_path, "w") as fh:
        fh.writelines(body[:insert] + name_lines + body[insert:])
    return 0


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 2:
        print("usage: python3 -m besched.glpk_runner MODEL.lp SOLUTION.sol", file=sys.stderr)
        return 2
    return solve_lp_file(argv[0], argv[1])


if __name__ == "__main__":
    sys.exit(main())
