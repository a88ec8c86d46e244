"""Row-by-row valuation scanner: the test oracle for the bit-sliced
scanner in ipckit.semantics.

It evaluates one valuation row at a time, in the same order (last
variable slot fastest) and with the same work accounting (one unit per
valuation row); implication is intuitionistic, or material when modal is
set.  Truth sets are bitmasks over the poset's points.
Formulas are compiled to postfix opcodes here, independently of the
scanner, which walks the interned formula itself.  _dag is the scanner's
former plan builder, which rebuilt the formula's nodes from the opcodes:
the oracle for the plans ipckit.semantics.compile_formula now builds.
"""

from ipckit.formulas import BOT, And, Bot, Box, Imp, Or, Var

OP_VAR, OP_BOT, OP_AND, OP_OR, OP_IMP, OP_BOX = range(6)


def compile_formula(f, slot_of):
    """Postfix opcode/arg arrays; slot_of maps variable index to slot."""
    ops, args = [], []

    def walk(g):
        if isinstance(g, Var):
            ops.append(OP_VAR)
            args.append(slot_of[g.index])
        elif isinstance(g, Bot):
            ops.append(OP_BOT)
            args.append(0)
        elif isinstance(g, Box):
            walk(g.inner)
            ops.append(OP_BOX)
            args.append(0)
        else:
            walk(g.left)
            walk(g.right)
            ops.append({And: OP_AND, Or: OP_OR, Imp: OP_IMP}[type(g)])
            args.append(0)

    walk(f)
    return ops, args


_BINARY = {OP_AND: And, OP_OR: Or, OP_IMP: Imp}


def _dag(ops, args):
    """The distinct subformulas of a compiled formula, children first, as
    (node, op, a, b): a is the slot of a variable, the position of a
    box's child, or with b the positions of a binary node's children.

    The node is the formula's subformula with each variable renamed to
    its slot: Var(slot), BOT, Box(child) or And/Or/Imp(left, right) over
    child nodes.
    """
    nodes, pos, stack = [], {}, []
    for op, arg in zip(ops, args):
        if op == OP_VAR:
            node, a, b = Var(arg), arg, 0
        elif op == OP_BOT:
            node, a, b = BOT, 0, 0
        elif op == OP_BOX:
            child = stack.pop()
            node, a, b = Box(child), pos[child], 0
        else:
            right = stack.pop()
            left = stack.pop()
            node, a, b = _BINARY[op](left, right), pos[left], pos[right]
        if node not in pos:
            pos[node] = len(nodes)
            nodes.append((node, op, a, b))
        stack.append(node)
    return tuple(nodes)


def eval_program(n, up, ops, args, vals, modal=False):
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
                if (miss >> x & 1 if modal else up[x] & miss) == 0:
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


def scan_validity(n, up, full, ops, args, nvars, domain, limit, modal=False):
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
        ok = eval_program(n, up, ops, args, (), modal) == full
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
        if eval_program(n, up, ops, args, vals, modal) != full:
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
