// Command mrtdump exports a simulated routing view as a RouteViews-style
// MRT TABLE_DUMP_V2 snapshot, or inspects an existing MRT file.
//
// Usage:
//
//	mrtdump -scale 5000 -o view.mrt            # simulate + export
//	mrtdump -read view.mrt                     # inspect a dump
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/cli"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/mrt"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mrtdump:", err)
		os.Exit(1)
	}
}

// inspect summarizes an MRT file: a TABLE_DUMP_V2 snapshot when it starts
// with a peer index table, otherwise a BGP4MP update log (the format
// hijackmon -record produces).
func inspect(path string) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	if snap, err := mrt.ReadSnapshot(fh); err == nil {
		fmt.Printf("view %q: %d peers, %d RIB records\n",
			snap.Peers.ViewName, len(snap.Peers.Peers), len(snap.RIBs))
		for _, rib := range snap.RIBs {
			fmt.Printf("prefix %v: %d entries\n", rib.Prefix, len(rib.Entries))
			for _, e := range rib.Entries {
				fmt.Printf("  peer %v: path %v\n", snap.Peers.Peers[e.PeerIndex].AS, e.ASPath)
			}
		}
		return nil
	}
	// Not a snapshot: stream it as an update log.
	if _, err := fh.Seek(0, 0); err != nil {
		return err
	}
	r := mrt.NewReader(fh)
	updates := 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if mrt.Skippable(err) {
			continue
		}
		if errors.Is(err, mrt.ErrTruncated) {
			fmt.Printf("truncated after a clean %d-byte prefix: %v\n", r.Offset(), err)
			break
		}
		if err != nil {
			return err
		}
		m, ok := rec.(*mrt.BGP4MPMessage)
		if !ok {
			continue
		}
		updates++
		if u, ok := m.Message.(*bgpwire.Update); ok {
			origin, _ := u.OriginAS()
			fmt.Printf("t=%d peer %v → collector %v: announce %v origin %v path %v\n",
				m.Timestamp, m.PeerAS, m.LocalAS, u.NLRI, origin, u.ASPath)
		}
	}
	if n := r.Skipped(); n > 0 {
		fmt.Printf("skipped %d unsupported, unknown or malformed records\n", n)
	}
	fmt.Printf("update log: %d BGP4MP records\n", updates)
	return nil
}

func run() error {
	fs := flag.NewFlagSet("mrtdump", flag.ExitOnError)
	wf := cli.AddWorldFlags(fs)
	out := fs.String("o", "view.mrt", "output MRT file")
	read := fs.String("read", "", "read and summarize an existing MRT snapshot instead")
	peersN := fs.Int("peers", 24, "number of vantage peers to dump")
	prefixText := fs.String("prefix", "129.82.0.0/16", "contested prefix to dump routes for")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	contested, err := prefix.Parse(*prefixText)
	if err != nil {
		return err
	}

	if *read != "" {
		return inspect(*read)
	}

	w, err := wf.BuildWorld()
	if err != nil {
		return err
	}
	cli.Describe(w)
	target, err := topology.FindTarget(w.Graph, w.Class, topology.TargetQuery{Depth: 2, Stub: true})
	if err != nil {
		return err
	}
	attacker := w.Class.Tier1[0]
	s := w.Policy.AcquireSolver()
	defer w.Policy.ReleaseSolver(s)
	o, err := s.Solve(core.Attack{Target: target, Attacker: attacker}, nil)
	if err != nil {
		return err
	}
	peers := topology.NodesByDegree(w.Graph)
	if *peersN < len(peers) {
		peers = peers[:*peersN]
	}
	fh, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer fh.Close()
	if err := mrt.WriteSnapshot(fh, w.Graph, o, contested, peers, 0); err != nil {
		return err
	}
	fmt.Printf("wrote MRT snapshot of %v under hijack by %v (%d peers) to %s\n",
		w.Graph.ASN(target), w.Graph.ASN(attacker), len(peers), *out)
	return nil
}
