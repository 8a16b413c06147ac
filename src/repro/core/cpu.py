"""Base CPU executor: fetch / predicate / execute / account cycles.

Concrete cores (:class:`~repro.core.arm7.Arm7Core`,
:class:`~repro.core.arm1156.Arm1156Core`,
:class:`~repro.core.cortexm3.CortexM3Core`) subclass this and provide

* ``fetch_stalls(addr, size)`` - instruction-side memory timing,
* ``data_read`` / ``data_write`` - data-side memory path,
* ``instruction_cycles(ins, outcome)`` - microarchitectural base cost,
* ``check_interrupts()`` - their interrupt scheme.

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
* the **trace engine** (the default) - binds predecoded micro-ops
  (:mod:`repro.isa.predecode`) with per-core cycle costs prebound by
  :meth:`BaseCpu.compile_cycles`, chains them into *superblocks* (the
  straight-line run from an entry address, continued through
  unconditional direct branches), and executes each superblock as one
  dispatch with no per-step interrupt poll.  Hot superblocks are *fused*
  into single generated code objects (:mod:`repro.core.superblock`); a
  fused block ending in a loop *back-edge* loops inside the generated code
  under an inline guard, so a whole loop iteration is one generated
  function executed N times with zero engine dispatch between iterations.
  Superblocks are built lazily per entry address (a branch target
  mid-block simply starts its own block) and invalidated with the
  micro-op table when the program's execution index is reassigned.

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
with the same key already did.

Per core remain only what binds the plan over the core's own objects:
the bound steps (general steps bind lazily on first dispatch, slim steps
when a block first needs them), each block's fusion countdown, and the
fused callables.  *When* a core fuses a block is still its own countdown
(a plan hit skips the emission, not the wait), so everything a core
reports - ``Ecu.fused_block_count`` included - is independent of what
ran earlier in the process.

Interrupt exactness is preserved by an **event horizon**: the earliest
``assert_cycle`` of any queued request, conservatively ignoring masking
and priority.  While ``cycles`` is below the horizon no controller poll
can have an effect, so chained execution is unobservable; once the
horizon is reached the engine polls the controller and dispatches one
bound micro-op per instruction, exactly like ``step()``.

One dispatch loop serves both public entries.  :meth:`BaseCpu.run` runs
to halt; :meth:`BaseCpu.run_until_cycle`, the **cycle-coupled** entry used
by the multi-ECU co-simulation (:mod:`repro.vehicle`), stops at the first
instruction boundary at or past a cycle ceiling.  The ceiling joins the
event horizon, so fused loops keep looping between bus events, and
bounded runs compose exactly: any sequence of ceilings executes the same
instruction stream as one run to the final ceiling.  Both entries share
the cached and fused superblocks, so a machine may alternate them freely.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.isa.assembler import Program
from repro.isa.conditions import Condition
from repro.isa.instructions import Instruction
from repro.isa.predecode import compile_uop, predecode
from repro.core.superblock import FUSE_THRESHOLD, device_key, fuse_block
from repro.isa.registers import MASK32, Apsr, RegisterFile
from repro.isa.semantics import Outcome, execute
from repro.core.exceptions import ExecutionError
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
    "guarded per-step prefix (horizon/budget boundary)")
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

#: sentinel: no interrupt queue has been bound into fused blocks yet
_UNBOUND_QUEUE = object()

#: the cycle ceiling of an unbounded run(): past any reachable cycle count
_NO_CEILING = 1 << 62


def _runaway(max_instructions: int, until: int | None) -> ExecutionError:
    """The instruction-budget error of a run to halt or to cycle ``until``."""
    goal = "halting" if until is None else f"reaching cycle {until}"
    return ExecutionError(f"exceeded {max_instructions} instructions without {goal}")


def return_stack_branch_inline(target: int) -> list[str] | None:
    """Constant-target ``branch()`` inline for the VIC cores (ARM7 and
    ARM1156 share the same override shape): a plain PC write, with the
    rare interrupt return-stack unwind routed through the real method -
    re-running its PC write is idempotent."""
    target &= MASK32
    if target == HALT_ADDRESS:
        return None
    return [f"rvals[15] = {target}",
            "rs = cpu._return_stack",
            f"if rs and rs[-1][1] == {target}:",
            f"    BR({target})"]


class PlanKey(NamedTuple):
    """Every core or bus fact an engine plan's contents depend on.

    Block discovery reads the core class (branch inlining, exception
    return) and ``split_block_ops``; the cycle cap reads the class's cycle
    models, ``WORST_DYNAMIC_CYCLES`` and ``worst_stall``; the fused-code
    emitters read the class, ``data_plan``, ``mpu``, the bus layout with
    the device timing they fold in (``devices``, see
    :func:`~repro.core.superblock.device_key`) and the fetch cache's
    geometry.  Two cores with equal keys derive identical plans.
    """

    core: type
    split_block_ops: bool
    data_plan: str | None
    mpu: bool
    worst_stall: int
    devices: tuple
    fetch_cache: tuple | None


class PlanBlock:
    """One superblock of an engine plan, shared by every core that runs it.

    ``uops`` are the block's micro-ops (the discovery walk's result);
    ``cap`` its worst-case cycle cost (:meth:`BaseCpu._block_cycle_cap`),
    computed on first use under a cycle ceiling; ``code`` and ``recipe``
    the fused function's code object and binding recipe, set by the first
    core to fuse the block (:func:`~repro.core.superblock.fuse_block`).
    """

    __slots__ = ("uops", "cap", "code", "recipe")

    def __init__(self, uops: list) -> None:
        self.uops = uops
        self.cap: int | None = None
        self.code = None
        self.recipe: tuple | None = None


class EnginePlan:
    """The trace engine's per-(Program, :class:`PlanKey`) cache: the
    :class:`PlanBlock` for each superblock entry pc discovered so far."""

    __slots__ = ("key", "blocks")

    def __init__(self, key: PlanKey) -> None:
        self.key = key
        self.blocks: dict[int, PlanBlock] = {}


def engine_plan(program: Program, key: PlanKey) -> EnginePlan:
    """The engine plan of ``program`` for cores whose key is ``key``.

    Plans are cached on the program beside ``predecode``'s micro-op table
    and invalidated the same way: *reassigning* the program's execution
    index drops every plan.  A program running under an engine must
    therefore not be patched in place (see ``predecode``).
    """
    plans = getattr(program, "_engine_plans", None)
    if plans is None or program._plan_index is not program._by_address:
        plans = program._engine_plans = {}
        program._plan_index = program._by_address
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = EnginePlan(key)
    return plan


class BaseCpu:
    """Shared machinery for the three core models."""

    #: human-readable core name, overridden by subclasses
    name = "base"

    #: the live interrupt-controller queue, overridden as a property by
    #: cores: when it is an empty list the fast loop may skip
    #: check_interrupts(), which returns None for an empty queue on every
    #: controller.  None means "no declared controller".
    _irq_queue: list | None = None

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
        #: pc -> general bound step (bound on first dispatch), rebuilt with
        #: the plan when the program's execution index is reassigned
        self._fast_table: dict | None = None
        self._fast_index: dict | None = None
        self._fast_outcome = Outcome()
        self._plan: EnginePlan | None = None
        #: entry pc -> [steps, plan block, fusion countdown, fused]
        self._sb_blocks: dict[int, list] = {}
        self._sb_steps: dict[int, object] = {}
        #: the interrupt queue fused blocks were bound over (loop guards
        #: bind the queue list at fuse time); a controller swap between
        #: runs drops the fused blocks so they rebind
        self._sb_bound_queue: object = _UNBOUND_QUEUE

    # ------------------------------------------------------------------
    # hooks for subclasses
    # ------------------------------------------------------------------
    def fetch_stalls(self, addr: int, size: int) -> int:
        raise NotImplementedError

    def data_read(self, addr: int, size: int) -> tuple[int, int]:
        raise NotImplementedError

    def data_write(self, addr: int, size: int, value: int) -> int:
        raise NotImplementedError

    def instruction_cycles(self, ins: Instruction, outcome: Outcome) -> int:
        raise NotImplementedError

    def check_interrupts(self) -> bool:
        """Service a pending interrupt if any; True when one was taken."""
        return False

    # ------------------------------------------------------------------
    # ExecutionContext protocol
    # ------------------------------------------------------------------
    def read(self, addr: int, size: int) -> int:
        value, stalls = self.data_read(addr, size)
        self._data_stalls += stalls
        return value

    def write(self, addr: int, size: int, value: int) -> None:
        self._data_stalls += self.data_write(addr, size, value)

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
        self.current_address = pc
        self.current_size = ins.size
        fetch = self.fetch_stalls(pc, ins.size)
        self._data_stalls = 0
        condition = self._next_condition(ins)
        outcome = self._execute(ins, condition)
        base = self.instruction_cycles(ins, outcome)
        self.cycles += base + fetch + self._data_stalls
        self.instructions_executed += 1
        if outcome.skipped:
            self.instructions_skipped += 1
        if outcome.taken:
            self.branches_taken += 1
        if not outcome.taken and not self.halted:
            self.regs.pc = pc + ins.size
        return not self.halted

    def _execute(self, ins: Instruction, condition: Condition | None) -> Outcome:
        return execute(self, ins, condition)

    # ------------------------------------------------------------------
    # predecoded fast path
    # ------------------------------------------------------------------
    def compile_cycles(self, ins: Instruction):
        """Optionally prebind the cycle cost of ``ins`` for the fast path.

        Subclasses return a closure ``fn(outcome) -> int`` that must agree
        with :meth:`instruction_cycles` for every outcome, or ``None`` to
        fall back to calling :meth:`instruction_cycles` dynamically.
        (``tests/test_fastpath_properties.py`` sweeps the agreement across
        every mnemonic and outcome shape.)
        """
        return None

    @staticmethod
    def _static_cycle_fn(base: int, taken: int):
        """The common compile_cycles shape: cost static per instruction,
        modulated only by the skipped/taken outcome flags.

        The static costs are attached to the closure (``static_base`` /
        ``static_taken``) so the superblock binder can inline them into
        slim steps instead of calling the closure per instruction.
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

    #: True on cores whose ``fetch_stalls`` is a plain delegation to
    #: ``self.bus`` - the fetch hooks below then bind bus-level fast paths.
    #: Cores that fetch through a cache leave it False (or override it as
    #: a property) and supply their own ``_fetch_port``/``_fetch_thunk``.
    _bus_fetch = False

    def _fetch_port(self):
        """The instruction-fetch callable bound into fast steps.

        Binding the bus method directly (``_bus_fetch`` cores) shaves a
        Python frame per executed instruction.  Must be timing- and
        statistics-identical to :meth:`fetch_stalls`.
        """
        if self._bus_fetch:
            return self.bus.fetch_stalls
        return self.fetch_stalls

    def _fetch_thunk(self, address: int, size: int):
        """A zero-argument fetch closure prebound to one instruction
        address (the device decode folded at bind time), or ``None`` when
        the core has no such shortcut.  Must be timing- and
        statistics-identical to ``fetch_stalls(address, size)``.
        """
        if self._bus_fetch:
            return self.bus.fetch_thunk(address, size)
        return None

    def _fetch_bus_device(self, address: int, size: int):
        """The bus device instruction fetches at ``address`` resolve to,
        when the core's fetch path is the plain system bus; ``None`` when
        fetches go elsewhere (caches) or the address is unmapped.  Lets
        the superblock fuser inline fetch timing for known device types.
        """
        if self._bus_fetch:
            device = self.bus._lookup(address)
            if device is not None and address + size <= device.base + device.size:
                return device
        return None

    def _data_inline_plan(self) -> str | None:
        """Whether (and how) fused code may inline the data-bus fast path.

        ``None``: never inline - ``cpu.read``/``cpu.write`` must mediate
        every access (data caches, unknown cores).  ``"direct"``: the data
        path is the bare system bus with no per-access checks, so the
        span-cache hit path is emitted as raw statements.  ``"mpu"``: same
        inline bus path, but preceded by a per-access MPU consultation
        (``cpu._mpu_check`` when ``cpu.mpu`` is attached) that faults
        bit-exactly mid-block; an MPU attached *after* fusion is honoured
        because the emitted check reads ``cpu.mpu`` dynamically.
        """
        return None

    def _fetch_cache(self):
        """The instruction cache fetches go through, or ``None``.

        Cores whose ``fetch_stalls`` is a :class:`~repro.memory.cache.Cache`
        read return it here so the superblock fuser can emit the cached
        fetch (hit/miss/parity/LRU accounting) as raw statements instead of
        a per-instruction closure call.
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

    def _cycle_fn(self, ins: Instruction):
        """The fast path's cycle model for ``ins``: the closure
        :meth:`compile_cycles` prebinds, or a call to
        :meth:`instruction_cycles` when it declines."""
        cycle_fn = self.compile_cycles(ins)
        if cycle_fn is None:
            def cycle_fn(outcome, _ins=ins, _dyn=self.instruction_cycles):
                return _dyn(_ins, outcome)
        return cycle_fn

    def _bind_uop(self, uop):
        """Close a micro-op over this CPU: one call executes one instruction."""
        exec_fn = uop.exec
        cond_check = uop.cond_check
        cycle_fn = self._cycle_fn(uop.ins)
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

    def _bind_uop_slim(self, uop):
        """Bind a *chainable* micro-op into a slim step for superblocks.

        Chainable micro-ops (kind ``alu``/``mem``) can never branch, halt,
        sleep, or start an IT block, so the slim variants drop the
        taken/halted bookkeeping, the shared-outcome resets, and the
        ``current_address`` updates of the general step; pure ALU steps
        also skip the ``_data_stalls`` round-trip.  Each slim step owns a
        private :class:`Outcome` whose ``taken``/``skipped`` flags stay
        False forever, so outcome-dependent cycle closures (divides, LDM)
        read exactly what the reference path would.

        Returns ``None`` when no slim variant applies (conditional
        execution with a dynamic cycle model); callers then fall back to
        the general bound step, which is architecturally identical.
        """
        if not uop.chainable:
            return None
        exec_fn = uop.exec
        cond_check = uop.cond_check
        cycle_fn = self._cycle_fn(uop.ins)
        base = getattr(cycle_fn, "static_base", None)
        if cond_check is not None and base is None:
            return None
        fetch = self._fetch_port()
        regs = self.regs
        outcome = Outcome()  # private: taken/skipped remain False
        address = uop.address
        size = uop.size
        next_pc = uop.next_pc
        mem = uop.kind == "mem"
        if cond_check is None:
            if not mem:
                if base is not None:
                    def fast_step() -> None:
                        stalls = fetch(address, size)
                        exec_fn(self, outcome)
                        self.cycles += base + stalls
                        self.instructions_executed += 1
                        regs.values[15] = next_pc
                    return fast_step

                def fast_step() -> None:
                    stalls = fetch(address, size)
                    exec_fn(self, outcome)
                    self.cycles += cycle_fn(outcome) + stalls
                    self.instructions_executed += 1
                    regs.values[15] = next_pc
                return fast_step
            if base is not None:
                def fast_step() -> None:
                    stalls = fetch(address, size)
                    self._data_stalls = 0
                    exec_fn(self, outcome)
                    self.cycles += base + stalls + self._data_stalls
                    self.instructions_executed += 1
                    regs.values[15] = next_pc
                return fast_step

            def fast_step() -> None:
                stalls = fetch(address, size)
                self._data_stalls = 0
                exec_fn(self, outcome)
                self.cycles += cycle_fn(outcome) + stalls + self._data_stalls
                self.instructions_executed += 1
                regs.values[15] = next_pc
            return fast_step
        # conditional with a static cycle cost (skipped always costs 1)
        if not mem:
            def fast_step() -> None:
                stalls = fetch(address, size)
                if cond_check(self.apsr):
                    exec_fn(self, outcome)
                    self.cycles += base + stalls
                else:
                    self.cycles += 1 + stalls
                    self.instructions_skipped += 1
                self.instructions_executed += 1
                regs.values[15] = next_pc
            return fast_step

        def fast_step() -> None:
            stalls = fetch(address, size)
            if cond_check(self.apsr):
                self._data_stalls = 0
                exec_fn(self, outcome)
                self.cycles += base + stalls + self._data_stalls
            else:
                self.cycles += 1 + stalls
                self.instructions_skipped += 1
            self.instructions_executed += 1
            regs.values[15] = next_pc
        return fast_step

    def _fast_dispatch_table(self) -> dict:
        """The core's pc -> general bound step table, (re)built empty.

        Keyed on the execution index's identity: reassigning
        ``_by_address`` (the merge-two-images pattern) drops every bound
        step and block, and takes the core's plan key afresh.  Steps bind
        on first dispatch (:meth:`_predecode_missing`).
        """
        index = self.program._by_address
        if self._fast_table is None or self._fast_index is not index:
            self._fast_table = {}
            self._fast_index = index
            self._plan = engine_plan(self.program, self._plan_key())
            self._sb_blocks = {}
            self._sb_steps = {}
        return self._fast_table

    def _plan_key(self) -> PlanKey:
        """This core's :class:`PlanKey`, read off its live configuration."""
        cache = self._fetch_cache()
        return PlanKey(
            core=type(self),
            split_block_ops=self._split_block_ops,
            data_plan=self._data_inline_plan(),
            mpu=getattr(self, "mpu", None) is not None,
            worst_stall=self.worst_access_stall(),
            devices=tuple(device_key(device) for device in self.bus._devices),
            fetch_cache=(None if cache is None
                         else (cache.sets, cache.ways, cache.line_bytes)))

    #: runaway guard for a single superblock (keeps lazy build bounded)
    _SB_MAX_LEN = 128

    def _block_step(self, uop):
        """The bound step a superblock runs for ``uop`` (cached per core):
        the slim step of a chainable micro-op, else the general step."""
        fast_step = self._sb_steps.get(uop.address)
        if fast_step is None:
            fast_step = self._bind_uop_slim(uop)
            if fast_step is None:
                fast_step = self._fast_table.get(uop.address)
                if fast_step is None:
                    fast_step = self._predecode_missing(self._fast_table,
                                                        uop.address)
            self._sb_steps[uop.address] = fast_step
        return fast_step

    def _superblock_at(self, pc: int) -> list:
        """This core's entry for the superblock entered at ``pc``.

        The block itself comes from the core's engine plan, discovered
        there by the first core to enter it (:meth:`_discover_block`); the
        core binds its own steps over the block's micro-ops.  The entry is
        ``[steps, block, countdown, fused]``: after ``countdown``
        list-mode dispatches the block is fused into a single generated
        function (:mod:`repro.core.superblock`), so fusion is only paid
        for blocks that are actually hot on this core.
        """
        blocks = self._plan.blocks
        block = blocks.get(pc)
        if block is None:
            block = blocks[pc] = self._discover_block(pc)
        steps = [self._block_step(uop) for uop in block.uops]
        entry = [steps, block, FUSE_THRESHOLD, None]
        self._sb_blocks[pc] = entry
        _SB_BUILT.add()
        return entry

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

        Below the event horizon whole superblocks execute with no
        per-instruction checks; at or past it the engine polls and
        single-steps exactly like ``step()`` until the queue drains or
        recedes into the future again.  The ceiling ``until`` (the
        co-simulation quantum; unbounded runs use one past any reachable
        cycle) folds into the horizon: a block, or one more iteration of
        a fused loop (whose guard tests ``_sb_cycle_limit``), runs free
        only while the interrupt queue is empty *and* its worst-case cycle
        cap fits under the ceiling.  Otherwise the engine dispatches steps
        with an exact cycle test, which pins the stop point to the first
        instruction boundary at or past ``until`` (and IRQ service to the
        horizon) regardless of quantum splits, fusion state, or cap
        accuracy.  A bounded run also returns when the core goes to sleep;
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
        # honoured; raise_irq() mutates this same list, so storms raised
        # mid-run (or from handlers) stay visible
        irq_queue = self._irq_queue
        # unknown interrupt scheme (override without a declared queue):
        # poll unconditionally, as the reference loop does
        poll_always = (irq_queue is None
                       and type(self).check_interrupts is not BaseCpu.check_interrupts)
        if self._sb_bound_queue is not irq_queue:
            # fused loop guards bind the queue list at fuse time: blocks
            # fused over another controller's queue are stale
            if self._sb_blocks:
                self._sb_blocks = {}
                _SB_INVALIDATED.add()
            self._sb_bound_queue = irq_queue
        bounded = until is not None
        ceiling = until if bounded else _NO_CEILING
        # whole-block dispatch needs the cycle count at or below this
        # limit, and fused loops iterate only while below it: the ceiling
        # itself when unbounded, one block cycle cap under the ceiling
        # (set per dispatch) when bounded
        self._sb_cycle_limit = ceiling
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
            horizon = None
            if irq_queue:
                horizon = min(request.assert_cycle for request in irq_queue)
            if poll_always or (horizon is not None and self.cycles >= horizon):
                # an interrupt may be eligible right now (or an undeclared
                # controller needs polling): poll, then one bound micro-op
                # (no defer re-check after the poll - the reference loop
                # executes the instruction at the post-entry PC within the
                # same step)
                check_interrupts()
                if self.halted:
                    break
                fast_step = table.get(pc_slot[15])
                if fast_step is None:
                    fast_step = self._predecode_missing(table, pc_slot[15])
                fast_step()
                _DISPATCH_POLL.add()
                continue
            pc = pc_slot[15]
            entry = blocks_get(pc)
            if entry is None:
                entry = self._superblock_at(pc)
            steps = entry[0]
            if horizon is None and len(steps) <= limit - executed:
                if bounded:
                    block = entry[1]
                    cap = block.cap
                    if cap is None:
                        cap = block.cap = self._block_cycle_cap(block.uops)
                    self._sb_cycle_limit = until - cap
                if self.cycles <= self._sb_cycle_limit:
                    # empty queue and the whole block fits under the ceiling
                    # (a cap shortfall could only overrun the *quantum*, a
                    # boundary the IRQ delivery latency already absorbs)
                    fused = entry[3]
                    if fused is not None:
                        fused()
                        _DISPATCH_FUSED.add()
                        continue
                    for fast_step in steps:
                        fast_step()
                    _DISPATCH_LIST.add()
                    entry[2] -= 1
                    if entry[2] <= 0:
                        entry[3] = fuse_block(self, entry[1], steps)
                    continue
            if len(steps) > limit - executed:
                # budget guard: run the allowed prefix, then raise above
                steps = steps[:limit - executed]
            _DISPATCH_STEP.add()
            bound = ceiling if horizon is None or horizon > ceiling else horizon
            for fast_step in steps:
                if self.cycles >= bound:
                    break
                fast_step()

    #: upper bound on the *core-side* cycles of any instruction whose
    #: compiled cycle model is dynamic (no ``static_taken`` attached).
    #: Cores with outcome-dependent costs (early-exit dividers) override
    #: this with their declared worst case; the base value is a
    #: conservative ceiling for cores that do not declare.
    WORST_DYNAMIC_CYCLES = 16

    def worst_access_stall(self) -> int:
        """Worst stall any single bus access can impose on this core.

        Delegates to the bus's device-declared ``worst_stall`` contract;
        cores with private memory ports (TCM, caches) fold those in.
        """
        return self.bus.worst_stall

    def _block_cycle_cap(self, uops) -> int:
        """A sound worst-case cycle bound for one superblock execution.

        Used by the dispatch loop to decide whether a whole block (or one
        more fused-loop iteration) fits under the cycle ceiling - and only
        while the interrupt queue is empty, so an IRQ can never be
        serviced late because of it.  The bound is built from *declared*
        interfaces rather than heuristics: each uop contributes its static
        taken-path cost (the maximum over outcome shapes;
        :attr:`WORST_DYNAMIC_CYCLES` covers the few dynamic cycle models)
        plus the memory system's declared :meth:`worst_access_stall` per
        access (the fetch, plus one data access for mem uops or one per
        transferred register).  An overestimate only means per-step
        dispatch near the ceiling; the declared protocol keeps the
        estimate tight enough that fused blocks run close to the quantum
        edge.
        """
        stall = self.worst_access_stall()
        worst_dynamic = self.WORST_DYNAMIC_CYCLES
        total = 0
        for uop in uops:
            cycle_fn = self.compile_cycles(uop.ins)
            static = (getattr(cycle_fn, "static_taken", None)
                      if cycle_fn is not None else None)
            if static is None:
                static = worst_dynamic
            accesses = 1  # the instruction fetch
            reglist = getattr(uop.ins, "reglist", ())
            if reglist:
                accesses += len(reglist)
            elif uop.kind == "mem":
                accesses += 1
            total += static + stall * accesses
        return total

    def _predecode_missing(self, table: dict, pc: int):
        """Bind the general step for ``pc`` on its first dispatch."""
        uop = self._uop_at(pc)
        if uop is None:
            raise ExecutionError(
                f"no instruction at pc={pc:#010x} ({self.name})")
        fast_step = self._bind_uop(uop)
        table[pc] = fast_step
        return fast_step

    def _uop_at(self, pc: int):
        """The micro-op at ``pc`` from the program's predecode table, or
        ``None`` when no instruction is mapped there.

        Instructions can join the program's execution index after the pass
        (e.g. a second program image merged in for an ISR); they are
        predecoded into the table on first use, so such programs stay on
        the fast path."""
        uop_table = predecode(self.program)
        uop = uop_table.get(pc)
        if uop is None:
            ins = self.program.instruction_at(pc)
            if ins is None:
                return None
            uop = uop_table[pc] = compile_uop(ins, self.program.isa)
        return uop

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
