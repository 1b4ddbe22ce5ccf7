// Command perfbench is the repository benchmark. It runs one workload
// against the library (build-select, build-hull) or against a real
// mcserve process (serve-mixed), checks every output with a hull-free
// oracle, and prints one JSON result as the last line of standard
// output. With --trace 1 it reports per-layer metrics instead of the
// end-to-end ones: the build workloads replay each build stage by stage
// through the exported calls New and Coreset make, and serve-mixed reads
// the server's own metrics and stats endpoints.
//
// Usage (from the repository root; run.sh builds the binaries):
//
//	bash perfbench/run.sh --workload build-select --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics, their sample counts, and notes for
// the human-readable lines printed before the result.
type report struct {
	res     result
	samples map[string]int
	notes   []string
}

func newReport() *report {
	return &report{
		res:     result{Correct: true, Metrics: map[string]metric{}},
		samples: map[string]int{},
	}
}

// set records a metric; n is its sample count (0 when it is not a
// sample statistic).
func (r *report) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// JSON has no encoding for these; a metric that could not be
		// measured is reported as a note and left out.
		r.notef("metric %s could not be measured (%v)", name, v)
		return
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		r.samples[name] = n
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect: an output the oracle rejected.
func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	r.notef("INCORRECT: "+format, args...)
}

// print writes the human-readable lines and then the JSON result line.
func (r *report) print() {
	names := make([]string, 0, len(r.res.Metrics))
	for k := range r.res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	for _, k := range names {
		m := r.res.Metrics[k]
		if s := r.samples[k]; s > 0 {
			fmt.Printf("# %-36s %14.6g %-6s (n=%d)\n", k, m.Value, m.Unit, s)
		} else {
			fmt.Printf("# %-36s %14.6g %s\n", k, m.Value, m.Unit)
		}
	}
	b, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for build outputs and temporary state
	mcserve  string // path of the built mcserve binary
}

func main() {
	var cfg config
	var trace int
	var seconds int
	flag.StringVar(&cfg.workload, "workload", "", "build-select | build-hull | serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.IntVar(&seconds, "seconds", 25, "measured duration in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for temporary state and trace dumps")
	flag.StringVar(&cfg.mcserve, "mcserve", "", "mcserve binary (serve-mixed)")
	flag.Parse()
	cfg.seconds = float64(seconds)
	cfg.trace = trace == 1
	if seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	abs, err := filepath.Abs(cfg.out)
	if err != nil {
		fatalf("resolve --out: %v", err)
	}
	cfg.out = abs

	rep := newReport()
	rep.notef("env workload=%s seed=%d seconds=%d trace=%v go=%s gomaxprocs=%d nproc=%d",
		cfg.workload, cfg.seed, seconds, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	switch cfg.workload {
	case "build-select", "build-hull":
		err = runBuild(cfg, buildSpecs[cfg.workload], rep)
	case "serve-mixed":
		err = runServe(cfg, rep)
	default:
		fatalf("unknown --workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	rep.print()
}

var workloadNames = []string{"build-select", "build-hull", "serve-mixed"}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// cpuTimes reads the machine-wide steal and total CPU ticks from
// /proc/stat. Steal is time the hypervisor gave this machine's virtual
// CPUs to someone else: wall-clock figures taken while it is high read
// slow for reasons outside the program.
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the share of CPU time stolen over an interval.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	s, t := cpuTimes()
	return stealMeter{s, t}
}

// pct returns the stolen share since the meter started, in percent.
func (m stealMeter) pct() float64 {
	s, t := cpuTimes()
	return 100 * ratio(float64(s-m.steal), float64(t-m.total))
}

// selfCPU returns this process's CPU time (user + system, all threads).
// With paravirtual steal accounting the kernel leaves time the
// hypervisor stole out of it, unlike wall-clock time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns a process's CPU time (user + system, all threads)
// from its process CPU-time clock, at nanosecond resolution.
func procCPU(pid int) (time.Duration, error) {
	clock := (^int32(pid))<<3 | 2 // the kernel's process CPUCLOCK_SCHED id
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(uint32(clock)), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, e)
	}
	return time.Duration(ts.Nano()), nil
}

// resetPeakRSS resets a process's peak resident set size (VmHWM) to its
// current resident set size ("self" for this process).
func resetPeakRSS(pid string) error {
	if err := os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// vmHWM returns the peak resident set size of a process in MiB, read
// from /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%s/status", pid)
}
