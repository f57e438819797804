// Command recycleasm assembles a .ras source file and prints a listing
// (PC, encoded form, disassembly) plus the data segment, or runs the
// program on the golden emulator with -run.  The data listing walks
// the program's dense data image in address order and shows its first
// 32 words, with their labels.
//
//	recycleasm prog.ras
//	recycleasm -run -steps 10000 prog.ras
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"recyclesim/internal/asm"
	"recyclesim/internal/emu"
	"recyclesim/internal/isa"
	"recyclesim/internal/program"
)

// listedWords is how many data words the listing shows.
const listedWords = 32

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams; it
// returns the exit status: 2 for a usage error, 1 for a file that does
// not read or assemble.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("recycleasm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exec := fs.Bool("run", false, "execute on the functional emulator after assembling")
	steps := fs.Uint64("steps", 100_000, "emulator step budget with -run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: recycleasm [-run] [-steps n] file.ras")
		return 2
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	prog, err := asm.Assemble(fs.Arg(0), string(src))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// Invert the label table for the listing.
	byAddr := map[uint64][]string{}
	for name, addr := range prog.Labels {
		byAddr[addr] = append(byAddr[addr], name)
	}
	for _, names := range byAddr {
		sort.Strings(names)
	}

	fmt.Fprintf(stdout, "; %s — %d instructions, %d data words\n",
		prog.Name, len(prog.Code), len(prog.Data))
	for i, in := range prog.Code {
		pc := prog.Entry + uint64(i*isa.InstBytes)
		for _, l := range byAddr[pc] {
			fmt.Fprintf(stdout, "%s:\n", l)
		}
		fmt.Fprintf(stdout, "  0x%04x  %v\n", pc, in)
	}

	if len(prog.Data) > 0 {
		fmt.Fprintln(stdout, "\n; data")
		for i, v := range prog.Data {
			a := program.DataBase + 8*uint64(i)
			for _, l := range byAddr[a] {
				fmt.Fprintf(stdout, "%s:\n", l)
			}
			fmt.Fprintf(stdout, "  0x%06x  %d\n", a, v)
			if i+1 == listedWords {
				fmt.Fprintf(stdout, "  ... (%d more words)\n", len(prog.Data)-listedWords)
				break
			}
		}
	}

	if *exec {
		e := emu.New(prog)
		n := e.Run(*steps)
		fmt.Fprintf(stdout, "\n; ran %d instructions, halted=%v, pc=0x%x\n", n, e.Halted, e.PC)
		for r := 1; r < 16; r++ {
			if e.Regs[r] != 0 {
				fmt.Fprintf(stdout, ";   r%-2d = %d\n", r, int64(e.Regs[r]))
			}
		}
	}
	return 0
}
