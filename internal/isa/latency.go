package isa

// Execution latencies in cycles, modelled on the DEC Alpha 21264 as the
// paper specifies ("Instruction latencies are based on the DEC Alpha
// 21264").  Load latency here is the execute-stage portion only; cache
// access time is added by the memory system.
var classLatency = [NumClasses]int{
	ClassNop:    1,
	ClassIntALU: 1,
	ClassIntMul: 7,
	ClassIntDiv: 20,
	ClassLoad:   1,
	ClassStore:  1,
	ClassBranch: 1,
	ClassFPAdd:  4,
	ClassFPMul:  4,
	ClassFPDiv:  16,
	ClassFPCvt:  4,
}

// Latency returns the execution latency of the instruction in cycles,
// excluding any memory-hierarchy time for loads.
func (i *Inst) Latency() int { return classLatency[i.Class()] }

// Pipelined reports whether the instruction's functional unit accepts a
// new operation every cycle.  Divides iterate and occupy their unit.
func (i *Inst) Pipelined() bool {
	c := i.Class()
	return c != ClassIntDiv && c != ClassFPDiv
}
