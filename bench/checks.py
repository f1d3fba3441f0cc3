"""Independent interpreter for compiled shuttling programs.

It shares no code with the package.  It tracks which ions sit in which
segment and checks every ``DG`` against the circuit: for a two-qubit gate
the crystal in the LIZ must hold exactly the gate's two operands, for a
one-qubit gate it must contain the operand, and gates must run once each,
in circuit order.  It also records the register extent high-water mark.
"""
from __future__ import annotations


def interpret(raw, liz: int, gates) -> tuple[list[str], int]:
    """Replay ``raw`` ``(opcode, params)`` commands for the circuit ``gates``
    (each with ``index`` and 0-based ``operands``; ion = qubit + 1).

    Returns ``(problems, span_max)`` where ``span_max`` is the largest
    number of segments the occupied part of the trap ever covered.
    """
    seg: dict[int, list[int]] = {}
    problems: list[str] = []
    next_gate = 0
    span_max = 0
    for i, (op, params) in enumerate(raw, start=1):
        try:
            if op == "AIC":
                seg.setdefault(params[1], []).append(params[0])
            elif op == "SMU" or op == "SMD":
                step = -1 if op == "SMU" else 1
                for s in sorted(params[1:], reverse=step > 0):
                    if s + step in seg:
                        raise ValueError(f"segment {s + step} already occupied")
                    seg[s + step] = seg.pop(s)
            elif op == "S":
                top, bottom = seg.pop(liz)
                seg[liz - 1] = [top]
                seg[liz + 1] = [bottom]
            elif op == "M":
                seg[liz] = seg.pop(liz - 1) + seg.pop(liz + 1)
            elif op == "RC":
                seg[params[0]].reverse()
            elif op == "DG":
                if next_gate >= len(gates):
                    raise ValueError("more gates executed than the circuit has")
                gate = gates[next_gate]
                ions = [q + 1 for q in gate.operands]
                here = seg.get(liz, [])
                if params[0] != gate.index:
                    raise ValueError(f"gate {params[0]} runs where gate {gate.index} is due")
                if len(ions) == 2 and sorted(here) != sorted(ions):
                    raise ValueError(f"gate {gate.index} on {ions} but the LIZ holds {here}")
                if len(ions) == 1 and ions[0] not in here:
                    raise ValueError(f"gate {gate.index} on {ions} but the LIZ holds {here}")
                next_gate += 1
                continue
            else:
                continue
        except (KeyError, ValueError, IndexError) as e:
            problems.append(f"command {i} {op}: {e!r}")
            break
        if seg:
            span_max = max(span_max, max(seg) - min(seg) + 1)
    if not problems and next_gate != len(gates):
        problems.append(f"{next_gate} of {len(gates)} gates executed")
    return problems, span_max
