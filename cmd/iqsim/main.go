// Command iqsim runs a single simulation of one workload on one
// instruction-queue design and prints IPC plus the full statistics set.
//
// A comma-separated -workload list runs every workload simultaneously on
// one SMT machine and reports per-thread commit counts.
//
// Examples:
//
//	iqsim -queue segmented -size 512 -chains 128 -hmp -lrp -workload swim
//	iqsim -queue ideal -size 32 -workload gcc -n 200000
//	iqsim -queue prescheduled -size 704 -workload equake
//	iqsim -queue segmented -workload swim,gcc   # 2-thread SMT run
//	iqsim -printconfig          # dump the Table 1 machine parameters
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	iqsim "repro"
)

func main() {
	var (
		queue    = flag.String("queue", "segmented", "IQ design: ideal, segmented, prescheduled, fifos, distance")
		size     = flag.Int("size", 512, "total IQ capacity (slots)")
		chains   = flag.Int("chains", 128, "chain wires for the segmented design (0 = unlimited)")
		hmp      = flag.Bool("hmp", false, "enable the load hit/miss predictor (segmented)")
		lrp      = flag.Bool("lrp", false, "enable the left/right operand predictor (segmented)")
		workload = flag.String("workload", "swim", "workload, or comma-separated list for an SMT run: "+strings.Join(iqsim.Workloads(), ", "))
		n        = flag.Int64("n", 100_000, "instructions to simulate")
		warm     = flag.Int64("warm", 300_000, "instructions to fast-forward (cache/predictor warm-up)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		noPush   = flag.Bool("nopushdown", false, "disable instruction pushdown (segmented)")
		noByp    = flag.Bool("nobypass", false, "disable segment bypass (segmented)")
		instant  = flag.Bool("instantwires", false, "ablation: unpipelined chain wires (segmented)")
		verbose  = flag.Bool("v", false, "print the full statistics set")
		printCfg = flag.Bool("printconfig", false, "print the Table 1 machine parameters and exit")
	)
	flag.Parse()

	var cfg iqsim.Config
	switch *queue {
	case "ideal":
		cfg = iqsim.Ideal(*size)
	case "segmented":
		cfg = iqsim.Segmented(*size, *chains, *hmp, *lrp)
		cfg.Segmented.Pushdown = !*noPush
		cfg.Segmented.Bypass = !*noByp
		cfg.Segmented.InstantWires = *instant
	case "prescheduled":
		cfg = iqsim.Prescheduled(*size)
	case "fifos":
		cfg = iqsim.FIFOBased(*size)
	case "distance":
		cfg = iqsim.Distance(*size)
	default:
		fmt.Fprintf(os.Stderr, "iqsim: unknown queue %q\n", *queue)
		os.Exit(2)
	}

	if *printCfg {
		printConfig(cfg)
		return
	}

	workloads, err := splitWorkloads(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iqsim:", err)
		os.Exit(2)
	}
	if len(workloads) > 1 {
		res, err := iqsim.RunSMT(cfg, workloads, *seed, *n, *warm)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iqsim:", err)
			os.Exit(1)
		}
		fmt.Printf("%s SMT x%d: IPC %.4f (%d instructions, %d cycles)\n",
			cfg.Queue, len(workloads), res.IPC, res.Instructions, res.Cycles)
		for i, wl := range res.Workloads {
			fmt.Printf("  thread %d %-12s %8d committed\n", i, wl, res.PerThread[i])
		}
		if *verbose {
			fmt.Print(res.Stats.String())
		}
		return
	}

	res, err := iqsim.Run(cfg, workloads[0], *seed, *n, *warm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iqsim:", err)
		os.Exit(1)
	}
	fmt.Printf("%s on %s: IPC %.4f (%d instructions, %d cycles)\n",
		res.QueueName, res.Workload, res.IPC, res.Instructions, res.Cycles)
	if *verbose {
		fmt.Print(res.Stats.String())
	} else {
		for _, k := range []string{"branch_mispredict_rate", "l1d_miss_rate", "l2_miss_rate",
			"iq_occupancy_avg", "chains_avg", "chains_peak", "deadlock_cycles"} {
			if v, ok := res.Stats.Get(k); ok {
				fmt.Printf("  %-24s %.4f\n", k, v)
			}
		}
	}
}

// splitWorkloads parses a comma-separated -workload list, rejecting
// empty elements (doubled or trailing commas) with the offending token's
// 1-based position so `swim,,gcc` and `swim,` fail loudly instead of
// silently running a phantom empty workload.
func splitWorkloads(list string) ([]string, error) {
	parts := strings.Split(list, ",")
	for i, p := range parts {
		if strings.TrimSpace(p) == "" {
			return nil, fmt.Errorf("-workload list %q: empty workload at position %d", list, i+1)
		}
		parts[i] = strings.TrimSpace(p)
	}
	return parts, nil
}

func printConfig(cfg iqsim.Config) {
	fmt.Println("Processor parameters (Table 1):")
	fmt.Printf("  front-end pipeline      %d cycles fetch-to-decode, %d decode-to-dispatch\n",
		cfg.FetchToDecode, cfg.DecodeToDispatch)
	fmt.Printf("  fetch bandwidth         %d instructions/cycle, max %d branches\n",
		cfg.FetchWidth, cfg.MaxBranches)
	fmt.Printf("  dispatch/issue/commit   %d/%d/%d per cycle\n",
		cfg.DispatchWidth, cfg.IssueWidth, cfg.CommitWidth)
	fmt.Printf("  function units          %d each: IntALU, IntMul, FpAdd, FpMul/Div/Sqrt\n", cfg.FUPerClass)
	fmt.Printf("  queue                   %s, %d entries (ROB %d, LSQ %d)\n",
		cfg.Queue, cfg.QueueSize, cfg.ROBSize, cfg.LSQSize)
	fmt.Printf("  branch predictor        hybrid local/global: %d-bit global, %dx%d-bit local, %d-bit choice\n",
		cfg.BranchPredictor.GlobalHistBits, cfg.BranchPredictor.LocalEntries,
		cfg.BranchPredictor.LocalHistBits, cfg.BranchPredictor.ChoiceHistBits)
	fmt.Printf("  BTB                     %d entries, %d-way\n", cfg.BTBEntries, cfg.BTBWays)
	m := cfg.Memory
	fmt.Printf("  L1I                     %d KB %d-way, %d-cycle\n", m.L1I.Size>>10, m.L1I.Ways, m.L1I.HitLatency)
	fmt.Printf("  L1D                     %d KB %d-way, %d-cycle, %d MSHRs\n",
		m.L1D.Size>>10, m.L1D.Ways, m.L1D.HitLatency, m.L1D.MSHRs)
	fmt.Printf("  L2                      %d MB %d-way, %d-cycle, %d MSHRs, %d B/cycle to L1\n",
		m.L2.Size>>20, m.L2.Ways, m.L2.HitLatency, m.L2.MSHRs, m.L2.UpLinkBytesPerCycle)
	fmt.Printf("  memory                  %d-cycle, %d B/cycle\n", m.MemLatency, m.MemBytesPerCycle)
}
