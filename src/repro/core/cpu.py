"""Base CPU executor: fetch / predicate / execute / account cycles.

Concrete cores (:class:`~repro.core.arm7.Arm7Core`,
:class:`~repro.core.arm1156.Arm1156Core`,
:class:`~repro.core.cortexm3.CortexM3Core`) subclass this and provide

* ``fetch_stalls(addr, size)`` - instruction-side memory timing,
* ``read`` / ``write`` - the data-side memory path, each adding its
  access's stalls to ``_data_stalls``,
* their cycle model as data (``TAKEN_PENALTY``, ``EXTRA_CYCLES``,
  ``REGS_PER_CYCLE``, ``EARLY_EXIT_DIVIDER``, ``REGISTER_SHIFT_CYCLE``),
  from which this class derives both the reference cost
  (:meth:`BaseCpu.instruction_cycles`) and the trace engine's prebound
  cost (:meth:`BaseCpu.compile_cycles`),
* ``check_interrupts()`` - their interrupt scheme, polling the controller
  they declare as ``_irq_controller``.

Execution semantics are shared (:mod:`repro.isa.semantics`); only *timing*
and *interrupt architecture* differ between cores, which is precisely the
contrast the paper draws between its two implementations.

Execution engines
-----------------
Two engines produce bit-identical architectural results (registers, flags,
cycle counts, bus statistics, traces); the property tests in
``tests/test_fastpath_properties.py`` diff complete machine state across
both on randomised programs, and the golden corpus pins both:

* ``step()`` - the **reference interpreter** (``cpu.fastpath = False``):
  full decode and dispatch every instruction.  It is the semantic ground
  truth the trace engine is checked against.  The trace engine also
  falls back to it for IT-block predication, sleep (WFI) ticks, and
  anything a core defers (the ARM1156's restartable LDM/STM windows).
* the **trace engine** (the default) - binds each predecoded micro-op
  (:mod:`repro.isa.predecode`) once per core into one *bound step*, with
  its cycle cost prebound by :meth:`BaseCpu.compile_cycles`, chains them
  into *superblocks* (the straight-line run from an entry address,
  continued through unconditional direct branches), and executes each
  superblock as one dispatch with no per-step interrupt poll.  List, step
  and poll dispatch run the same bound step for an instruction, and fused
  code calls it where it has no inline form.  Hot superblocks are *fused*
  into single generated code objects (:mod:`repro.core.superblock`); a
  fused block ending in a loop *back-edge* loops inside the generated code
  under an inline guard, so a whole loop iteration is one generated
  function executed N times with zero engine dispatch between iterations.
  Superblocks are built lazily per entry address (a branch target
  mid-block simply starts its own block).  A program is immutable once
  assembled, so its micro-op table and engine plans are never rebuilt.

Engine plans: what cores share and what each core owns
------------------------------------------------------
Everything the trace engine derives from a program *and* a core's
configuration, but not from the core's objects, lives in an **engine
plan** (:class:`EnginePlan`) hung off the :class:`Program`, as
:func:`~repro.isa.predecode.predecode` hangs its micro-op table there.  A
plan is keyed by every core or bus fact that block discovery, the cycle
caps and the fused-code emitters read (:class:`PlanKey`, taken when the
core's dispatch table is built), and holds, per entry pc, the block's
micro-ops, its worst-case cycle cap, and - once any core has fused it -
the compiled code with its binding recipe (:mod:`repro.core.superblock`).
Campaign cells build thousands of short-lived cores over a handful of
programs, so a fresh core walks, caps and emits nothing a previous core
with the same key already did.  A plan reads a program's instructions,
never its embedded data (fused code loads literals at run time), so
programs with equal instructions share their plans (:func:`engine_plan`):
guest firmware built per node from one template, differing only in a
literal such as a CAN identifier, is one set of plans.

Hotness belongs to the plan too: a block's fusion countdown
(:class:`PlanBlock`) counts list dispatches over every core of the plan,
and once it runs out every core that enters the block runs it fused from
its first dispatch.  Fused code that leaves a block early, at a load or
store's escape arm, returns to the engine mid-block; the block entered
there starts hot (:attr:`EnginePlan.exits`).  Per core remain only what
binds the plan over the core's own objects: the fused callables and the
bound steps (one per instruction), each bound on first use - a block a
core only ever runs fused binds just the steps its code calls
(``S{i}``).  *When* a core fuses a block therefore depends on what ran
earlier in the process, and so does every engine count
(``Ecu.fused_block_count``, blocks built, dispatches by mode); what the
core computes does not.  Engine counts are introspection and telemetry,
never part of a record.

Interrupt exactness is preserved by an **event horizon**: the earliest
``assert_cycle`` of any queued request, conservatively ignoring masking
and priority, which each controller keeps current as requests are raised
and taken (its ``horizon``, O(1) to read).  While ``cycles`` is below the
horizon no controller poll can have an effect, so chained execution is
unobservable: a superblock runs whole, from its step list or fused,
whenever its worst-case cycle cap (:meth:`BaseCpu._block_cycle_cap`)
ends it at or below the horizon - interrupts queued for later do not
demote it - and a fused loop re-enters only while the horizon it started
under is unchanged.  Once the horizon is reached the engine polls the
controller and dispatches one bound micro-op per instruction, exactly
like ``step()``.

One dispatch loop serves both public entries.  :meth:`BaseCpu.run` runs
to halt; :meth:`BaseCpu.run_until_cycle`, the **cycle-coupled** entry used
by the multi-ECU co-simulation (:mod:`repro.vehicle`), stops at the first
instruction boundary at or past a cycle ceiling.  The ceiling joins the
event horizon in one dispatch limit, so fused loops keep looping between
bus events, and bounded runs compose exactly: any sequence of ceilings
executes the same instruction stream as one run to the final ceiling.
Both entries share the cached and fused superblocks, so a machine may
alternate them freely.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

from repro.isa.assembler import Program
from repro.isa.conditions import Condition
from repro.isa.instructions import BLOCK_OPS, Instruction
from repro.isa.predecode import predecode
from repro.core.superblock import FUSE_THRESHOLD, device_key, fuse_block
from repro.isa.registers import MASK32, Apsr, RegisterFile
from repro.isa.semantics import Outcome, execute
from repro.core.exceptions import DataAbort, ExecutionError
from repro.memory.mpu import MpuFault
from repro.sim.trace import TraceRecorder
from repro import obs

# Out-of-band engine telemetry (repro.obs).  Series handles are prebound
# at import so hot paths pay one enabled-flag check per event; every
# site observes execution and never alters it - architectural results
# stay bit-identical with telemetry on or off.
_RUNS = obs.counter("engine.runs", "run()/run_until_cycle() entries by engine")
_RUNS_REFERENCE = _RUNS.labels(tier="reference")
_RUNS_TRACE = _RUNS.labels(tier="trace")
_DISPATCHES = obs.counter(
    "engine.superblock.dispatches",
    "Trace-engine dispatches by mode: fused generated code, "
    "list-of-steps, poll-per-instruction (at the event horizon), or "
    "guarded per-step prefix (within one block cycle cap of the horizon "
    "or ceiling, or at the budget)")
_DISPATCH_FUSED = _DISPATCHES.labels(mode="fused")
_DISPATCH_LIST = _DISPATCHES.labels(mode="list")
_DISPATCH_POLL = _DISPATCHES.labels(mode="poll")
_DISPATCH_STEP = _DISPATCHES.labels(mode="step")
_SB_BUILT = obs.counter(
    "engine.superblocks.built", "Superblocks built (lazily, per entry pc)")
_SB_INVALIDATED = obs.counter(
    "engine.superblocks.invalidated",
    "Superblock cache invalidations (bound configuration changed)")

#: Branching here halts the simulation (the reset value of LR).
HALT_ADDRESS = 0xFFFFFFFE

#: the cycle ceiling of an unbounded run(): past any reachable cycle count
_NO_CEILING = 1 << 62


def _runaway(max_instructions: int, until: int | None) -> ExecutionError:
    """The instruction-budget error of a run to halt or to cycle ``until``."""
    goal = "halting" if until is None else f"reaching cycle {until}"
    return ExecutionError(f"exceeded {max_instructions} instructions without {goal}")


_SHIFT_OPS = frozenset({"LSL", "LSR", "ASR", "ROR"})
_DIVIDE_OPS = frozenset({"SDIV", "UDIV"})

#: the early-exit divider's longest run past the base cycle
_DIVIDE_MAX = 11


def _divide_cycles(bits: int) -> int:
    """The early-exit divider's cycles past the base cycle for a result
    of ``bits`` significant bits: 2 to 11."""
    return min(_DIVIDE_MAX, 1 + (bits + 3) // 4)


class PlanKey(NamedTuple):
    """Every core or bus fact an engine plan's contents depend on.

    Block discovery reads the core class (branch inlining, exception
    return) and ``split_block_ops``; the cycle cap reads the class's cycle
    models, ``WORST_DYNAMIC_CYCLES`` and ``worst_stall``; the fused-code
    emitters read the class, ``data_plan``, ``mpu``, the bus layout with
    the device timing they fold in (``devices``, see
    :func:`~repro.core.superblock.device_key`) and the geometry (sets,
    ways, line bytes) of the fetch cache and of the data cache, which fold
    into the inline cached fetch and the inline loads and stores of a
    core with a data cache.  Two cores with equal keys derive identical
    plans.
    """

    core: type
    split_block_ops: bool
    data_plan: str
    mpu: bool
    worst_stall: int
    devices: tuple
    fetch_cache: tuple | None
    data_cache: tuple | None


def _geometry(cache) -> tuple | None:
    """A cache's part of the plan key: ``(sets, ways, line_bytes)``."""
    return None if cache is None else (cache.sets, cache.ways, cache.line_bytes)


class PlanBlock:
    """One superblock of an engine plan, shared by every core that runs it.

    ``uops`` are the block's micro-ops (the discovery walk's result);
    ``cap`` its worst-case cycle cost (:meth:`BaseCpu._block_cycle_cap`),
    computed on first use under a cycle ceiling; ``countdown`` the list
    dispatches left, summed over every core of the plan, before the block
    is fused (:data:`~repro.core.superblock.FUSE_THRESHOLD` at first, 0
    for a block discovered at one of the plan's escape exits);
    ``code`` and ``recipe`` the fused function's code object and binding
    recipe, set by the core that fuses the block first
    (:func:`~repro.core.superblock.fuse_block`).  Every core that enters
    the block after that runs it fused from its first dispatch.
    """

    __slots__ = ("uops", "cap", "countdown", "code", "recipe")

    def __init__(self, uops: list) -> None:
        self.uops = uops
        self.cap: int | None = None
        self.countdown = FUSE_THRESHOLD
        self.code = None
        self.recipe: tuple | None = None


class EnginePlan:
    """The trace engine's per-(code, :class:`PlanKey`) cache: the
    :class:`PlanBlock` for each superblock entry pc discovered so far.

    ``exits`` are the pcs where the plan's fused code returns to the
    engine from an escape arm, mid-block (``repro.core.superblock``): the
    block entered there is as hot as the one that escaped, so a block
    discovered at an exit starts with its countdown run out."""

    __slots__ = ("key", "blocks", "exits")

    def __init__(self, key: PlanKey) -> None:
        self.key = key
        self.blocks: dict[int, PlanBlock] = {}
        self.exits: set[int] = set()


class _PlanTable(dict):
    """One code's engine plans by :class:`PlanKey` (a dict that can be
    weakly referenced)."""


#: plan tables by code, ``(isa, repr of every instruction)``: programs
#: with equal instructions - every field, addresses included - share one
#: table, whatever data they embed.  A table lives as long as a program
#: holds it.
_PLAN_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def engine_plan(program: Program, key: PlanKey) -> EnginePlan:
    """The engine plan of ``program`` for cores whose key is ``key``.

    Plans are cached on the program beside ``predecode``'s micro-op table
    and, like it, never rebuilt: a program is immutable once assembled.
    The cache is shared with every program whose instructions are equal,
    since nothing in a plan reads the program's data.
    """
    plans = getattr(program, "_engine_plans", None)
    if plans is None:
        code = (program.isa, tuple(map(repr, program.instructions)))
        plans = _PLAN_TABLES.get(code)
        if plans is None:
            plans = _PLAN_TABLES[code] = _PlanTable()
        program._engine_plans = plans
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = EnginePlan(key)
    return plan


class BaseCpu:
    """Shared machinery for the three core models."""

    #: human-readable core name, overridden by subclasses
    name = "base"

    @property
    def _irq_controller(self):
        """The live interrupt controller, which every core declares:
        ``check_interrupts()`` polls it, and the trace engine and fused
        loop guards read its ``horizon`` (the earliest queued
        ``assert_cycle``, None when nothing is queued)."""
        raise NotImplementedError

    #: the memory protection unit consulted on data accesses, or None
    mpu = None

    # the core's cycle model, as data: instruction_cycles() and
    # compile_cycles() derive the two engines' costs from it
    #: cycles added when an instruction writes the PC (pipeline refill)
    TAKEN_PENALTY = 0
    #: mnemonic -> cycles past the base cycle every instruction takes
    EXTRA_CYCLES: dict[str, int] = {}
    #: registers a block transfer (LDM/STM/PUSH/POP) moves per extra
    #: cycle, the last cycle possibly part-used
    REGS_PER_CYCLE = 1
    #: SDIV/UDIV stop early on narrow results (outcome ``div_early_exit``)
    EARLY_EXIT_DIVIDER = False
    #: a register-controlled LSL/LSR/ASR/ROR takes one more cycle
    REGISTER_SHIFT_CYCLE = False

    def __init__(self, program: Program, trace: TraceRecorder | None = None) -> None:
        self.program = program
        # "trace or ..." would drop an *empty* recorder (TraceRecorder
        # defines __len__, so a fresh one is falsy): test for None.
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.regs = RegisterFile()
        self.apsr = Apsr()
        self.cycles = 0
        self.instructions_executed = 0
        self.instructions_skipped = 0
        self.branches_taken = 0
        self.halted = False
        self.sleeping = False
        self.interrupts_enabled = True
        self.regs.lr = HALT_ADDRESS
        self.regs.pc = program.base
        self._it_queue: list[Condition] = []
        self._data_stalls = 0
        self.current_address = 0
        self.current_size = 4
        self.svc_log: list[int] = []
        #: the engine switch: the trace engine when True, the reference
        #: interpreter when False
        self.fastpath = True
        #: instruction ceiling of the current run, read by fused loop
        #: guards (set per run by _run_trace)
        self._sb_limit = 0
        #: cycle limit read by fused loop guards (set by _run_trace)
        self._sb_cycle_limit = 0
        #: pc -> bound step (bound once, on first use); list, step and
        #: poll dispatch and fused code's fallback share them
        self._fast_table: dict | None = None
        self._fast_outcome = Outcome()
        self._plan: EnginePlan | None = None
        #: entry pc -> [plan block, bound steps or None, fused or None]
        self._sb_blocks: dict[int, list] = {}
        #: the interrupt controller fused blocks were bound over (loop
        #: guards bind it at fuse time); a controller swap between runs
        #: drops the fused blocks so they rebind
        self._sb_bound_controller = None

    # ------------------------------------------------------------------
    # hooks for subclasses
    # ------------------------------------------------------------------
    def fetch_stalls(self, addr: int, size: int) -> int:
        raise NotImplementedError

    def check_interrupts(self) -> bool:
        """Service a pending interrupt if any; True when one was taken."""
        return False

    # ------------------------------------------------------------------
    # ExecutionContext protocol
    # ------------------------------------------------------------------
    def read(self, addr: int, size: int) -> int:
        """A data-side load; adds the access's stalls to ``_data_stalls``."""
        raise NotImplementedError

    def write(self, addr: int, size: int, value: int) -> None:
        """A data-side store; adds the access's stalls to ``_data_stalls``."""
        raise NotImplementedError

    def _mpu_check(self, addr: int, size: int, is_write: bool) -> None:
        """Consult the MPU, if one is attached: a violation is a precise
        :class:`DataAbort`."""
        if self.mpu is None:
            return
        try:
            self.mpu.check(addr, size, is_write)
        except MpuFault as fault:
            raise DataAbort(fault.address, "MPU violation") from fault

    def branch(self, target: int) -> None:
        target &= MASK32
        if target == HALT_ADDRESS:
            self.halted = True
            return
        if self._exception_return_hook(target):
            return
        self.regs.pc = target

    def _exception_return_hook(self, target: int) -> bool:
        """Cores with hardware exception return (M3) override this."""
        return False

    def pc_read_value(self) -> int:
        return self.current_address + (8 if self.program.isa == "arm" else 4)

    def set_interrupts_enabled(self, enabled: bool) -> None:
        self.interrupts_enabled = enabled

    def begin_it_block(self, firstcond: Condition, mask: str) -> None:
        if self._it_queue:
            raise ExecutionError("IT inside an IT block")
        conditions = [firstcond]
        for ch in mask[1:]:
            conditions.append(firstcond if ch == "T" else firstcond.inverse)
        self._it_queue = conditions

    def software_interrupt(self, number: int) -> None:
        self.svc_log.append(number)

    def wait_for_interrupt(self) -> None:
        self.sleeping = True

    # ------------------------------------------------------------------
    # execution loop
    # ------------------------------------------------------------------
    def _next_condition(self, ins: Instruction) -> Condition | None:
        if ins.mnemonic == "IT":
            return None
        if self._it_queue:
            return self._it_queue.pop(0)
        return None

    def in_it_block(self) -> bool:
        return bool(self._it_queue)

    def step(self) -> bool:
        """Execute one instruction; False when halted."""
        if self.halted:
            return False
        if self.sleeping:
            # only an interrupt can resume us; charge one idle cycle
            self.cycles += 1
            self.check_interrupts()
            return not self.halted
        self.check_interrupts()
        if self.halted:
            return False
        pc = self.regs.pc
        ins = self.program.instruction_at(pc)
        if ins is None:
            raise ExecutionError(f"no instruction at pc={pc:#010x} ({self.name})")
        return self._retire(pc, ins, *self._execute_one(pc, ins))

    def _execute_one(self, pc: int, ins: Instruction) -> tuple[Outcome, int]:
        """Fetch, predicate and execute ``ins`` at ``pc``: its outcome and
        its whole cost (core cycles plus fetch and data stalls)."""
        self.current_address = pc
        self.current_size = ins.size
        fetch = self.fetch_stalls(pc, ins.size)
        self._data_stalls = 0
        outcome = execute(self, ins, self._next_condition(ins))
        return outcome, self.instruction_cycles(ins, outcome) + fetch + self._data_stalls

    def _retire(self, pc: int, ins: Instruction, outcome: Outcome, cost: int) -> bool:
        """Charge an executed instruction, count it and advance the PC past
        it unless it branched; False when halted."""
        self.cycles += cost
        self.instructions_executed += 1
        if outcome.skipped:
            self.instructions_skipped += 1
        if outcome.taken:
            self.branches_taken += 1
        if not outcome.taken and not self.halted:
            self.regs.pc = pc + ins.size
        return not self.halted

    # ------------------------------------------------------------------
    # the cycle model's two derivations
    # ------------------------------------------------------------------
    def _extra_cycles(self, ins: Instruction, registers: int) -> int:
        """Cycles past the base cycle that no outcome flag changes, for a
        block transfer of ``registers`` registers (the divider's aside)."""
        m = ins.mnemonic
        extra = self.EXTRA_CYCLES.get(m, 0)
        if m in BLOCK_OPS:
            extra += -(-registers // self.REGS_PER_CYCLE)
        elif (self.REGISTER_SHIFT_CYCLE and m in _SHIFT_OPS
              and ins.rm is not None and ins.shift is None):
            extra += 1
        return extra

    def instruction_cycles(self, ins: Instruction, outcome: Outcome) -> int:
        """The reference ``step()``'s core-side cost of one instruction
        (fetch and data stalls come on top)."""
        if outcome.skipped:
            return 1
        cycles = 1 + self._extra_cycles(ins, outcome.regs_transferred)
        if self.EARLY_EXIT_DIVIDER and ins.mnemonic in _DIVIDE_OPS:
            cycles += _divide_cycles(outcome.div_early_exit)
        if outcome.taken:
            cycles += self.TAKEN_PENALTY
        return cycles

    def compile_cycles(self, ins: Instruction):
        """The fast path's prebound cost of ``ins``: a closure
        ``fn(outcome) -> int`` equal to :meth:`instruction_cycles` for
        every outcome ``ins`` can produce (a block transfer always moves
        its whole register list).  Static (:meth:`_static_cycle_fn`) for
        all but the early-exit divider.
        """
        base = 1 + self._extra_cycles(ins, len(ins.reglist))
        penalty = self.TAKEN_PENALTY
        if not (self.EARLY_EXIT_DIVIDER and ins.mnemonic in _DIVIDE_OPS):
            return self._static_cycle_fn(base, base + penalty)

        def divide_cycles(outcome):
            if outcome.skipped:
                return 1
            cycles = base + _divide_cycles(outcome.div_early_exit)
            return cycles + penalty if outcome.taken else cycles
        return divide_cycles

    @property
    def WORST_DYNAMIC_CYCLES(self) -> int:
        """The most core-side cycles of an instruction whose cost is not
        static (no ``static_taken``): the early-exit divider at its
        longest, taken."""
        return 1 + _DIVIDE_MAX + self.TAKEN_PENALTY

    # ------------------------------------------------------------------
    # predecoded fast path
    # ------------------------------------------------------------------
    @staticmethod
    def _static_cycle_fn(base: int, taken: int):
        """The common compile_cycles shape: cost static per instruction,
        modulated only by the skipped/taken outcome flags.

        The static costs are attached to the closure (``static_base`` /
        ``static_taken``): the fused-code emitters fold them into
        generated code as constants, and :meth:`_block_cycle_cap` bounds a
        block with them.
        """
        def cycles(outcome):
            if outcome.skipped:
                return 1
            return taken if outcome.taken else base
        cycles.static_base = base
        cycles.static_taken = taken
        return cycles

    def _fastpath_defer(self) -> bool:
        """True when the next instruction must take the reference ``step()``
        (cores with mid-instruction interrupt semantics override this)."""
        return False

    #: when True, LDM/STM/PUSH/POP micro-ops are never chained into a
    #: superblock (each forms a singleton block), so ``_fastpath_defer``
    #: sees every block transfer before it executes.  The ARM1156 enables
    #: this for its restartable-transfer windows.
    @property
    def _split_block_ops(self) -> bool:
        return False

    def _fetch_port(self):
        """The instruction-fetch callable bound into fast steps.

        Without a fetch cache (:meth:`_fetch_cache`) the bus method itself
        is bound, which shaves a Python frame per executed instruction.
        Must be timing- and statistics-identical to :meth:`fetch_stalls`.
        """
        cache = self._fetch_cache()
        if cache is None:
            return self.bus.fetch_stalls
        cache_read = cache.read

        def fetch(addr: int, size: int) -> int:
            return cache_read(addr, size, "I")[1]
        return fetch

    def _fetch_thunk(self, address: int, size: int):
        """A zero-argument fetch closure prebound to one instruction
        address (without a fetch cache, the device decode is folded at
        bind time), or ``None`` when the address is not wholly inside one
        bus device.  Must be timing- and statistics-identical to
        ``fetch_stalls(address, size)``.
        """
        cache = self._fetch_cache()
        if cache is None:
            return self.bus.fetch_thunk(address, size)
        cache_read = cache.read

        def thunk(addr=address, size=size):
            return cache_read(addr, size, "I")[1]
        return thunk

    def _fetch_bus_device(self, address: int, size: int):
        """The bus device instruction fetches at ``address`` resolve to,
        when the core has no fetch cache; ``None`` when fetches go through
        a cache or the address is unmapped.  Lets the superblock fuser
        inline fetch timing for known device types.
        """
        if self._fetch_cache() is None:
            device = self.bus._lookup(address)
            if device is not None and address + size <= device.base + device.size:
                return device
        return None

    def _data_inline_plan(self) -> str:
        """How fused code consults the MPU around an inline data access.

        ``"direct"``: never - the data path is the bare system bus with no
        per-access checks, so the span-cache hit path is emitted as raw
        statements.  ``"mpu"``: the same inline access is preceded by a
        per-access MPU consultation (``cpu._mpu_check`` when ``cpu.mpu``
        is attached) that faults bit-exactly mid-block; an MPU attached
        *after* fusion is honoured because the emitted check reads
        ``cpu.mpu`` dynamically.  Where the access goes is the data
        cache's business (:meth:`_data_cache`).
        """
        raise NotImplementedError

    def _data_cache(self):
        """The data cache loads and stores go through, or ``None``.

        With one, fused loads and stores run its clean path inline after
        the MPU consultation and mediate everything else; without one,
        they inline the system bus's span-cache hit.
        """
        return None

    def _fetch_cache(self):
        """The instruction cache fetches go through, or ``None``.

        A core fetches either through this :class:`~repro.memory.cache.Cache`
        (its ``fetch_stalls`` is the cache's read) or, without one, straight
        from ``self.bus`` (its ``fetch_stalls`` is the bus's); the fetch
        hooks above bind accordingly.  With a cache, the superblock fuser
        emits the cached fetch (hit/miss/parity/LRU accounting) as raw
        statements instead of a per-instruction closure call.
        """
        return None

    def _exception_return_static(self, target: int) -> bool:
        """True when ``_exception_return_hook(target)`` provably returns
        False for this *constant* target, letting fused code write the PC
        directly instead of calling :meth:`branch`."""
        return type(self)._exception_return_hook is BaseCpu._exception_return_hook

    def _branch_inline(self, target: int) -> list[str] | None:
        """Statements equivalent to ``branch(target)`` for a constant
        target, or ``None`` when only the real call is safe (halt address,
        overridden ``branch``, a possibly-live exception-return hook)."""
        target &= MASK32
        if type(self).branch is not BaseCpu.branch:
            return None
        if target == HALT_ADDRESS or not self._exception_return_static(target):
            return None
        return [f"rvals[15] = {target}"]

    def _bind_uop(self, uop):
        """Close a micro-op over this CPU: one call executes one instruction."""
        exec_fn = uop.exec
        cond_check = uop.cond_check
        cycle_fn = self.compile_cycles(uop.ins)
        fetch = self._fetch_port()
        regs = self.regs
        outcome = self._fast_outcome
        address = uop.address
        size = uop.size
        next_pc = uop.next_pc

        def fast_step() -> None:
            self.current_address = address
            self.current_size = size
            stalls = fetch(address, size)
            self._data_stalls = 0
            # Only taken/skipped are read before being written each step:
            # cycle models consult regs_transferred/div_early_exit solely
            # for mnemonics whose handlers assign them, so those (and the
            # unread read/write tallies) don't need clearing here.
            outcome.taken = False
            outcome.skipped = False
            if cond_check is None or cond_check(self.apsr):
                exec_fn(self, outcome)
            else:
                outcome.skipped = True
            self.cycles += cycle_fn(outcome) + stalls + self._data_stalls
            self.instructions_executed += 1
            if outcome.skipped:
                self.instructions_skipped += 1
            if outcome.taken:
                self.branches_taken += 1
            elif not self.halted:
                regs.values[15] = next_pc

        return fast_step

    def _fast_dispatch_table(self) -> dict:
        """The core's pc -> general bound step table, built empty on the
        first trace run, when the core takes its plan key.  Steps bind on
        first use (:meth:`_bound_step`).
        """
        if self._fast_table is None:
            self._fast_table = {}
            self._plan = engine_plan(self.program, self._plan_key())
        return self._fast_table

    def _plan_key(self) -> PlanKey:
        """This core's :class:`PlanKey`, read off its live configuration."""
        return PlanKey(
            core=type(self),
            split_block_ops=self._split_block_ops,
            data_plan=self._data_inline_plan(),
            mpu=self.mpu is not None,
            worst_stall=self.worst_access_stall(),
            devices=tuple(device_key(device) for device in self.bus._devices),
            fetch_cache=_geometry(self._fetch_cache()),
            data_cache=_geometry(self._data_cache()))

    #: runaway guard for a single superblock (keeps lazy build bounded)
    _SB_MAX_LEN = 128

    def _superblock_at(self, pc: int) -> list:
        """This core's entry for the superblock entered at ``pc``.

        The block itself comes from the core's engine plan, discovered
        there by the first core to enter it (:meth:`_discover_block`); a
        block discovered at one of the plan's escape exits starts hot.
        The entry is ``[block, steps, fused]``.  A block whose plan
        countdown has run out is fused at once - bound from the plan's
        code, emitted first if no core has yet (:mod:`repro.core.superblock`);
        ``steps``, the core's bound steps for the list, step and
        budget-prefix paths, wait for their first use (:meth:`_block_steps`).
        """
        plan = self._plan
        block = plan.blocks.get(pc)
        if block is None:
            block = plan.blocks[pc] = self._discover_block(pc)
            if pc in plan.exits:
                block.countdown = 0
        entry = [block, None,
                 None if block.countdown > 0 else fuse_block(self, block)]
        self._sb_blocks[pc] = entry
        _SB_BUILT.add()
        return entry

    def _block_steps(self, entry: list) -> list:
        """``entry``'s bound steps, one per micro-op of its block, bound
        on first use."""
        steps = entry[1]
        if steps is None:
            steps = entry[1] = [self._bound_step(uop) for uop in entry[0].uops]
        return steps

    def _discover_block(self, pc: int) -> PlanBlock:
        """Walk the superblock entered at ``pc`` (once per plan).

        A superblock is the maximal straight-line run of chainable
        micro-ops starting at ``pc``, optionally terminated by one
        non-chainable micro-op executed through its general bound step.
        An *unconditional direct branch* does not terminate the run: the
        walk continues at the branch target (a goto is just a straight
        line with a relocated next address - the branch's own step sets
        the PC, and the following steps are exactly the target's), so
        diamond join points and loop preheaders chain into one trace.
        Targets already in the trace, halt-address branches, and targets
        with exception-return semantics end the trace as before.  Branch
        targets inside an existing block simply get their own block on
        first dispatch; blocks overlap freely and share bound steps.
        """
        split_block_ops = self._plan.key.split_block_ops
        uops: list = []
        addr = pc
        visited = {pc}
        while len(uops) < self._SB_MAX_LEN:
            uop = self._uop_at(addr)
            if uop is None:
                break  # end of mapped code: dispatching here will fault
            if split_block_ops and uop.is_block_op and uops:
                break  # stop *before* the transfer: defer() must see it
            uops.append(uop)
            if not uop.chainable:
                # the ender runs its general step, which does full bookkeeping
                target = uop.branch_target
                if (uop.ins.mnemonic == "B"
                        and uop.cond_check is None and target is not None
                        and target != HALT_ADDRESS
                        and target not in visited
                        and self._exception_return_static(target)):
                    visited.add(target)
                    addr = target  # goto: the trace continues at the target
                    continue
                break
            if split_block_ops and uop.is_block_op:
                break  # singleton: defer() screens it on every dispatch
            addr = uop.next_pc
            visited.add(addr)
        if not uops:
            raise ExecutionError(
                f"no instruction at pc={pc:#010x} ({self.name})")
        return PlanBlock(uops)

    def run(self, max_instructions: int = 1_000_000) -> int:
        """Run until halt; returns instructions executed.  Raises if the
        instruction budget is exhausted (runaway program guard).

        Runs the trace engine, or the reference interpreter when
        ``fastpath`` is False (see the module docstring).  Results
        (registers, flags, cycles, bus statistics, traces) are identical
        for both."""
        return self._run(max_instructions, None)

    def run_until_cycle(self, until: int,
                        max_instructions: int = 10_000_000) -> int:
        """Advance to the first instruction boundary at or past ``until``.

        The co-simulation entry point (:mod:`repro.vehicle`): the CPU runs
        under the selected engine until its cycle counter reaches
        ``until``, stopping at an exact instruction boundary so repeated
        bounded runs compose: running to ``t1`` and then to ``t2`` executes
        the identical instruction stream (and leaves bit-identical state)
        as one run straight to ``t2``, for any split.  The quantum joins
        the interrupt event horizon rather than replacing it - fused trace
        superblocks keep looping below both ceilings, so guest code stays
        on the trace engine between bus events.

        Returns the number of instructions executed.  The method returns
        early when the core goes to sleep (WFI): idle time is the
        caller's to fast-forward (sleep ticks are pure ``cycles += 1``
        polls, which :class:`repro.vehicle.Ecu` skips in O(1)).
        """
        return self._run(max_instructions, until)

    def _run(self, max_instructions: int, until: int | None) -> int:
        """Both public entries: the selected engine under the instruction
        budget and the optional cycle ceiling ``until``."""
        start = self.instructions_executed
        limit = start + max_instructions
        if self.fastpath:
            _RUNS_TRACE.add()
            self._run_trace(limit, max_instructions, until)
        else:
            _RUNS_REFERENCE.add()
            ceiling = _NO_CEILING if until is None else until
            while not self.halted and self.cycles < ceiling:
                if until is not None and self.sleeping:
                    break
                if self.instructions_executed >= limit:
                    raise _runaway(max_instructions, until)
                self.step()
        return self.instructions_executed - start

    def _run_trace(self, limit: int, max_instructions: int,
                   until: int | None) -> None:
        """The trace engine's dispatch loop, with an optional cycle ceiling.

        One dispatch limit serves every run: ``top``, the lower of the
        ceiling ``until`` (the co-simulation quantum; unbounded runs use
        one past any reachable cycle) and the interrupt controller's event
        horizon.  A superblock runs whole - from its step list, or as
        fused code, where a loop keeps iterating while its guard holds -
        when its worst-case cycle cap fits under ``top``, whether or not
        interrupts are queued.  In the last cap's worth of cycles before
        ``top`` the engine dispatches steps with an exact cycle test,
        which pins the stop point to the first instruction boundary at or
        past ``until`` regardless of quantum splits or fusion state.  At
        or past the horizon it polls and single-steps exactly like
        ``step()`` until the queue drains or recedes into the future
        again.  A bounded run also returns when the core goes to sleep;
        an unbounded one ticks through WFI with ``step()``.
        """
        table = self._fast_dispatch_table()
        # fused loop guards compare against the same ceilings this loop
        # enforces, so a loop-fused block never overruns the budget the
        # per-block dispatch would have respected
        self._sb_limit = limit
        step, check_interrupts = self.step, self.check_interrupts
        defer = None
        if type(self)._fastpath_defer is not BaseCpu._fastpath_defer:
            defer = self._fastpath_defer
        # captured per run, so a controller swapped in between runs is
        # honoured; raise_irq() moves this same object's horizon, so
        # storms raised mid-run (or from handlers) stay visible
        irq = self._irq_controller
        if self._sb_bound_controller is not irq:
            # fused loop guards bind the controller at fuse time: blocks
            # fused over another controller are stale
            if self._sb_blocks:
                self._sb_blocks = {}
                _SB_INVALIDATED.add()
            self._sb_bound_controller = irq
        bounded = until is not None
        ceiling = until if bounded else _NO_CEILING
        blocks_get = self._sb_blocks.get
        pc_slot = self.regs.values
        while not self.halted and self.cycles < ceiling:
            if bounded and self.sleeping:
                break
            executed = self.instructions_executed
            if executed >= limit:
                raise _runaway(max_instructions, until)
            if self.sleeping or self._it_queue or (defer is not None and defer()):
                step()
                continue
            horizon = irq.horizon
            if horizon is not None and self.cycles >= horizon:
                # an interrupt may be eligible right now: poll, then one
                # bound micro-op (no defer re-check after the poll - the
                # reference loop executes the instruction at the post-entry
                # PC within the same step)
                check_interrupts()
                if self.halted:
                    break
                fast_step = table.get(pc_slot[15])
                if fast_step is None:
                    fast_step = self._predecode_missing(pc_slot[15])
                fast_step()
                _DISPATCH_POLL.add()
                continue
            top = ceiling if horizon is None or horizon > ceiling else horizon
            pc = pc_slot[15]
            entry = blocks_get(pc)
            if entry is None:
                entry = self._superblock_at(pc)
            block = entry[0]
            if len(block.uops) <= limit - executed:
                cap = block.cap
                if cap is None:
                    cap = block.cap = self._block_cycle_cap(block.uops)
                # fused loop guards iterate only below this limit too
                self._sb_cycle_limit = top - cap
                if self.cycles <= self._sb_cycle_limit:
                    # the whole block ends at or below top: every
                    # instruction in it starts below the horizon, where a
                    # poll cannot take anything (see _block_cycle_cap)
                    fused = entry[2]
                    if fused is not None:
                        fused()
                        _DISPATCH_FUSED.add()
                        continue
                    for fast_step in self._block_steps(entry):
                        fast_step()
                    _DISPATCH_LIST.add()
                    block.countdown -= 1
                    if block.countdown <= 0:
                        entry[2] = fuse_block(self, block)
                    continue
                steps = self._block_steps(entry)
            else:
                # budget guard: run the allowed prefix, then raise above
                steps = self._block_steps(entry)[:limit - executed]
            _DISPATCH_STEP.add()
            for fast_step in steps:
                if self.cycles >= top:
                    break
                fast_step()

    def worst_access_stall(self) -> int:
        """Worst stall any single bus access can impose on this core.

        Delegates to the bus's device-declared ``worst_stall`` contract;
        cores with private memory ports (TCM, caches) fold those in.
        """
        return self.bus.worst_stall

    def _block_cycle_cap(self, uops) -> int:
        """A sound worst-case cycle bound for one superblock execution.

        The dispatch loop runs a whole block (or one more fused-loop
        iteration) only from at or below ``top - cap``, with ``top`` the
        lower of the cycle ceiling and the interrupt event horizon, also
        while requests are queued.  The cap is therefore a correctness
        bound for interrupt timing, not only for the quantum: a shortfall
        would let an instruction start at or past an assert cycle without
        the poll ``step()`` makes before it, and the interrupt would be
        taken late (the IRQ tests in ``tests/test_fastpath_properties.py``
        catch an underestimate).  The bound is built from *declared*
        interfaces rather than heuristics: each uop contributes its static
        taken-path cost (the maximum over outcome shapes;
        :attr:`WORST_DYNAMIC_CYCLES` covers the few dynamic cycle models)
        plus the memory system's declared :meth:`worst_access_stall` per
        access (the fetch, plus one data access for mem uops or one per
        transferred register).  An overestimate only means per-step
        dispatch in the last cap's worth of cycles before ``top``.
        """
        stall = self.worst_access_stall()
        worst_dynamic = self.WORST_DYNAMIC_CYCLES
        total = 0
        for uop in uops:
            static = getattr(self.compile_cycles(uop.ins), "static_taken", None)
            if static is None:
                static = worst_dynamic
            accesses = 1  # the instruction fetch
            reglist = uop.ins.reglist
            if reglist:
                accesses += len(reglist)
            elif uop.kind == "mem":
                accesses += 1
            total += static + stall * accesses
        return total

    def _predecode_missing(self, pc: int):
        """The bound step for ``pc`` on its first per-step dispatch."""
        uop = self._uop_at(pc)
        if uop is None:
            raise ExecutionError(
                f"no instruction at pc={pc:#010x} ({self.name})")
        return self._bound_step(uop)

    def _bound_step(self, uop):
        """The core's one bound step for ``uop``, bound on first use."""
        table = self._fast_table
        fast_step = table.get(uop.address)
        if fast_step is None:
            fast_step = table[uop.address] = self._bind_uop(uop)
        return fast_step

    def _uop_at(self, pc: int):
        """The micro-op at ``pc`` from the program's predecode table, or
        ``None`` when no instruction is mapped there."""
        return predecode(self.program).get(pc)

    # ------------------------------------------------------------------
    # conveniences for tests / harnesses
    # ------------------------------------------------------------------
    def call(self, symbol: str, *args: int, max_instructions: int = 1_000_000,
             sp: int | None = None) -> int:
        """Call a labelled routine with up to four register arguments.

        Sets up AAPCS-style r0-r3, points LR at the halt address, runs to
        completion, and returns r0.
        """
        if symbol not in self.program.symbols:
            raise KeyError(f"no symbol {symbol!r} in program")
        if len(args) > 4:
            raise ValueError("only r0-r3 argument passing is supported")
        for index, value in enumerate(args):
            self.regs.write(index, value & MASK32)
        if sp is not None:
            self.regs.sp = sp
        self.regs.lr = HALT_ADDRESS
        self.regs.pc = self.program.symbols[symbol]
        self.halted = False
        # A WFI or a dangling IT block from a previous call must not leak
        # into this one: each call starts awake with no predication state.
        self.sleeping = False
        self._it_queue.clear()
        self.run(max_instructions=max_instructions)
        return self.regs.read(0)

    def cpi(self) -> float:
        """Cycles per instruction so far."""
        if self.instructions_executed == 0:
            return 0.0
        return self.cycles / self.instructions_executed
