package experiments

import (
	"testing"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/deploy"
	"github.com/bgpsim/bgpsim/internal/detect"
	"github.com/bgpsim/bgpsim/internal/sweep"
)

// planDigest rebuilds a study's plan against the world and returns its
// matrix digest — the identity a persisted shard of the study carries.
func planDigest[R, Out any](t *testing.T, s Study[R, Out], w *World) string {
	t.Helper()
	p, err := s.plan(w)
	if err != nil {
		t.Fatalf("%s plan: %v", s.Tag(), err)
	}
	return sweep.MatrixDigest(p.matrix)
}

// TestScenarioPinnedDigests pins, by value, the matrix digests of the
// studies whose cells take the scenario branch of sweep.MatrixDigest:
// forged-origin and route-leak attacks, ASPA validator sets, Peerlock,
// and a non-empty Ident (Figure 7's probe sets). Every persisted shard of
// these studies carries its digest, so a change here would orphan the
// shards on disk; TestExactOriginPinnedDigests (internal/hijack) pins the
// exact-origin branch the same way.
func TestScenarioPinnedDigests(t *testing.T) {
	w, err := NewWorld(2000, 7)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	aspaSet := core.MechASPA.Deploy(deploy.TopDegree(w.Graph, 40).Blocked(w.Graph.N())).ASPA
	cases := []struct {
		name string
		got  func() string
		want string
	}{
		{"scenario ladder rov+aspa, all kinds", func() string {
			return planDigest(t, ScenarioRankingStudy(ScenarioRankingConfig{AttackerSample: 120, Seed: 3}), w)
		}, "2c7964566c827f08bfc2046ec0a481b313ca59c9bfc2c55784bb851a0b6ca6aa"},
		{"scenario ladder rov+aspa+peerlock", func() string {
			return planDigest(t, ScenarioRankingStudy(ScenarioRankingConfig{
				AttackerSample: 80, Seed: 5, Mechs: core.MechROV | core.MechASPA | core.MechPeerlock}), w)
		}, "4c6cc972f65a3eb4c96d0483dd7b189ed03cb249cd1ed72a3c9ff5ed09bc5752"},
		{"fig5 forged-origin aspa", func() string {
			return planDigest(t, Fig5Study(DeploymentConfig{AttackerSample: 100, Seed: 1,
				Kind: core.KindForgedOrigin, Mechs: core.MechASPA}), w)
		}, "6b9e9ebb69792a1839e258ec06a7fb36fcae203fea649c202fe479ea141ca65b"},
		{"fig6 route leak peerlock", func() string {
			return planDigest(t, Fig6Study(DeploymentConfig{AttackerSample: 100, Seed: 2,
				Kind: core.KindRouteLeak, Mechs: core.MechROV | core.MechPeerlock}), w)
		}, "98bfa185c200f99c72ed5f808e956dd622315fa56a4562cfa733d18c840888bd"},
		{"fig5 exact origin", func() string {
			return planDigest(t, Fig5Study(DeploymentConfig{AttackerSample: 100, Seed: 1}), w)
		}, "ee94783b8319892ec55cb7df722ab08be5eb06513e1bae8fc414837261abebae"},
		{"fig7 probe ident", func() string {
			return planDigest(t, Fig7Study(DetectionConfig{Attacks: 300, Seed: 4}), w)
		}, "1fb21652e34e4609c4b0def2a847b300cfd9e507bcc141c629d5eb0c8c57aa6c"},
		{"fig7 route leak, aspa defense, any-received semantics", func() string {
			return planDigest(t, Fig7Study(DetectionConfig{Attacks: 200, Seed: 6,
				Kind: core.KindRouteLeak, Semantics: detect.AnyReceived,
				Defense: core.Defense{ASPA: aspaSet}}), w)
		}, "9a43960550b935346054bf6fde33f4e3b322db486c390a7d6f95d3c65c082234"},
		{"holes forged origin", func() string {
			return planDigest(t, HoleStudy(HoleConfig{Attacks: 300, Seed: 8, Kind: core.KindForgedOrigin}), w)
		}, "84f1a207d8f57d6f0316d29ada42113919c60a5771ea12451fbe1e6a9ab012aa"},
	}
	for _, c := range cases {
		if got := c.got(); got != c.want {
			t.Errorf("%s: MatrixDigest changed:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
