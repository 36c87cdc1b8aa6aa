package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
)

// CPUProfile is the -cpuprofile flag of the scan tools.
type CPUProfile struct{ path *string }

// AddCPUProfileFlag registers -cpuprofile.
func AddCPUProfileFlag(fs *flag.FlagSet) *CPUProfile {
	return &CPUProfile{fs.String("cpuprofile", "", "write a CPU profile of the run to this file (read it with go tool pprof)")}
}

// Start starts CPU profiling into the flag's file, if it names one. The
// returned stop ends the profile and closes the file; call it once the run
// is done, and report its error.
func (p *CPUProfile) Start() (stop func() error, err error) {
	if *p.path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(*p.path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the profile never started; its error is the one to report
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		return nil
	}, nil
}
