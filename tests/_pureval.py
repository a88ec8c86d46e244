"""Row-by-row valuation scanner: the test oracle for the bit-sliced
scanner in ipckit.semantics.

It evaluates one valuation row at a time, in the same order (last
variable slot fastest) and with the same work accounting (one unit per
valuation row).  Truth sets are bitmasks over the poset's points.
"""

from ipckit.semantics import OP_AND, OP_BOT, OP_BOX, OP_IMP, OP_OR, OP_VAR


def eval_program(n, up, ops, args, vals):
    """Truth-set bitmask of the compiled formula under one valuation."""
    stack = []
    push = stack.append
    for k in range(len(ops)):
        op = ops[k]
        if op == OP_VAR:
            push(vals[args[k]])
        elif op == OP_BOT:
            push(0)
        elif op == OP_AND:
            b = stack.pop()
            stack[-1] &= b
        elif op == OP_OR:
            b = stack.pop()
            stack[-1] |= b
        elif op == OP_IMP:
            b = stack.pop()
            a = stack.pop()
            miss = a & ~b
            res = 0
            for x in range(n):
                if up[x] & miss == 0:
                    res |= 1 << x
            push(res)
        else:  # OP_BOX
            a = stack.pop()
            miss = ~a
            res = 0
            for x in range(n):
                if up[x] & miss == 0:
                    res |= 1 << x
            push(res)
    return stack[-1]


def scan_validity(n, up, full, ops, args, nvars, domain, limit):
    """Check the formula under every assignment of domain values to slots.

    Returns (status, witness, work) with status one of "valid", "refuted",
    "budget"; witness is the tuple of domain indices of the first refuting
    assignment (slot 0 slowest).
    """
    m = len(domain)
    if nvars == 0:
        work = 1
        if limit is not None and work > limit:
            return ("budget", None, 0)
        ok = eval_program(n, up, ops, args, ()) == full
        return ("valid" if ok else "refuted", None if ok else (), work)
    if m == 0:
        return ("valid", None, 0)
    idx = [0] * nvars
    vals = [domain[0]] * nvars
    work = 0
    while True:
        work += 1
        if limit is not None and work > limit:
            return ("budget", None, work - 1)
        if eval_program(n, up, ops, args, vals) != full:
            return ("refuted", tuple(idx), work)
        v = nvars - 1
        while v >= 0:
            idx[v] += 1
            if idx[v] < m:
                vals[v] = domain[idx[v]]
                break
            idx[v] = 0
            vals[v] = domain[0]
            v -= 1
        if v < 0:
            return ("valid", None, work)
