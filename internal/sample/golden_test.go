package sample

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/workload"
)

// goldenDigests pins the SHA-256 of fmt.Sprintf("%+v", stats) for a
// matrix of detailed runs and two sampled runs.  TestDeterminism only
// compares two runs inside one process; these digests are fixed across
// commits, so a host-speed change that alters one simulated bit (issue
// order, a predictor index, a cache set) fails here.  A deliberate
// behaviour change must recompute them and say why.
var goldenDigests = map[string]string{
	"SMT compress":             "533c14ab2b26c5c3d810900339908c55ab171ffe409cef8312988cdfc48447d0",
	"SMT gcc":                  "1ff8ea3afd499a133b76092f4d7d94448dacf085e5bf6bc620a4d5e22d5f9592",
	"SMT go":                   "5133064dfcc7aba945038f3f0cf5a754c11d9b130441ba19969c6e0270bc70c1",
	"SMT li":                   "9b6f8f59efbca4d9f32812355839e3c245987e9822f471425798065ead2cc5f4",
	"SMT perl":                 "4a185f4b45d0758bbca1386a7bb87acfa43fa73fe2d5fc6f8e06db658d5f0a09",
	"SMT su2cor":               "f9836f17bdc95686bf4e5da848c18ec759d734ff272a01ce7bec766fddc03618",
	"SMT tomcatv":              "a75561388cf8c856052647315b0d10153d0272f310f4cfca4718f5c8ccc102e5",
	"SMT vortex":               "8420d8659c5c856116f7df340df7d71339cfe4f2cbba05c6dc824bfa3f86c5f6",
	"TME compress":             "1b50b1065070591e10d99b559ed520dc26e6ae842f985852ea0d707687106a4b",
	"TME gcc":                  "78fd275b7e6c4f96a756fde615bb6f607668057df9decb08c4f7633c36f69e71",
	"TME go":                   "40ff3ab1fc7dc623c5c6a45c82b42c596420363dc799c5bcc08e6b6d120feb7a",
	"TME li":                   "7a10b2c59602e7d71aa3eacfad6d618c608e770b90651db90abb1a78cb282e5b",
	"TME perl":                 "61874cb9c9175a543ddc1061e7fe84df5c112646a4024f869ba52d2803a89b39",
	"TME su2cor":               "cde028b8bca1b07c759d749bca28c3df57fab572076d85c9a3a0e841c07af962",
	"TME tomcatv":              "d310bd80d96b7ddd1336bb04556edfb67d8644dcad04b86c28c449d111ce4e1b",
	"TME vortex":               "51a067d5f82b30339082777631aca7d3c71f0f6729ea2f6c69fc0c44f0142f6f",
	"REC/RS/RU compress":       "e1b05990a17b5e2776b3dec0998f3abd4895dcc71ff3c784d5a618b5b7c2e185",
	"REC/RS/RU gcc":            "00da22f1568f4e89ba370f87105cc40ff187a09cd5f664d8e5f01db21c953bee",
	"REC/RS/RU go":             "ab907404d34f5998037d3066092ca3aaccbb28f5fb1c4ca6d14d3d2c691b36fd",
	"REC/RS/RU li":             "69fb5af1e169d5546b5e11c427a69ac6de66e19b04da048e9592566cdee52344",
	"REC/RS/RU perl":           "cd1f3545617c9cd7a3875ecf9a8eec925b613b887e41d64d7783580a2fe39957",
	"REC/RS/RU su2cor":         "5b0760cb5b857475ddbf626ce0127039b691b68a262483d9466beca367c24fac",
	"REC/RS/RU tomcatv":        "ac599191b2a7975df2457a6200e17502ce131bd4bc6639f74da075eb7b1148f4",
	"REC/RS/RU vortex":         "4692faf2023f11ee2815330b0dddc42e5ff51f4cfefc24528b7ad7bd2234a216",
	"REC/RS/RU go+li":          "228243bcfea7ab066d0fb596b5949bb47a6d433b21f98005963497643b02093d",
	"REC/RS/RU small.2.8 mix4": "f31533a36988fa09e33baee641ade8cd2dfb46aa814eae362816b421e57e3c98",
	"REC/RS/RU stop gcc":       "efa3e306f49c8f4992a451dd08fdc4166736b388e7299a48641205508f4532fb",
	"REC/RS/RU fetch gcc":      "a7831d18cdf1fd8c75b51b2f62d666dd05524123349e0cf05c3f4d623750bdb5",
	"REC/RS/RU trust gcc":      "f3fc6e5285e31ffc78ef8eec605b038eb4aa72ed8aa87fe3af5a5b4c6ef3ae61",
	"REC gcc":                  "d39aa6218c3285d39b8dd78aa60f66925e715985b4dbd3dd0893dbc5c4116e75",
	"SMT go+li":                "85a7c80ea0120598a55ce9e3e5f1b03c1bcedd4a91ba2fe56fdabf7916775823",
	"SMT small.2.8 mix4":       "9fc749270d5f87c3b76fdff09f58f86f700f59da75b8af0afd5539298111193c",
	"TME small.2.8 mix4":       "5a7a835982952d7b45e462d22e30704990e7de1719d716420612d7039a2b24f6",
	"sampled REC/RS/RU gcc":    "eacfd849fd9fa2d4fbb8cfba0c578c559c71d8700239e9b38f4c836c525faf9d",
	"sampled SMT gcc":          "5e8129b4e01da0a91fb9d81d1abf08e511e8715a67345aec225a8ad7fdae5160",
}

func digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:])
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	if want := goldenDigests[name]; got != want {
		t.Errorf("%s: stats digest %s, want %s", name, got, want)
	}
}

func TestGoldenDigests(t *testing.T) {
	const insts = 20_000
	detailed := func(t *testing.T, mach config.Machine, feat config.Features, names []string) string {
		t.Helper()
		progs, err := workload.MixPrograms(names)
		if err != nil {
			t.Fatal(err)
		}
		c, err := loadedCore(mach, feat, progs)
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Run(insts, 40*insts+10_000)
		if err != nil {
			t.Fatal(err)
		}
		return digest(*s)
	}
	for _, feat := range []config.Features{config.SMT, config.TME, config.RECRSRU} {
		for _, w := range workload.Names {
			name := config.FeatureName(feat) + " " + w
			checkGolden(t, name, detailed(t, config.Big216(), feat, []string{w}))
		}
	}
	// Multi-program cells: several live primaries share the round-robin
	// commit, and on small.2.8 four of them compete for a commit width
	// of eight.
	checkGolden(t, "REC/RS/RU go+li", detailed(t, config.Big216(), config.RECRSRU, []string{"go", "li"}))
	checkGolden(t, "SMT go+li", detailed(t, config.Big216(), config.SMT, []string{"go", "li"}))
	mix4 := workload.Mixes(4)[0]
	for _, feat := range []config.Features{config.SMT, config.TME, config.RECRSRU} {
		name := config.FeatureName(feat) + " small.2.8 mix4"
		checkGolden(t, name, detailed(t, config.Small28(), feat, mix4))
	}
	// The other recycle policies: the stop and fetch alternate-path
	// policies take the Draining and issue-cancel paths differently,
	// TrustTrace skips the stream's prediction check, and plain REC
	// runs without respawn or reuse.
	stop, fetch, trust := config.RECRSRU, config.RECRSRU, config.RECRSRU
	stop.AltPolicy = config.AltStop
	fetch.AltPolicy = config.AltFetch
	trust.TrustTrace = true
	for _, v := range []struct {
		name string
		feat config.Features
	}{
		{"REC/RS/RU stop gcc", stop},
		{"REC/RS/RU fetch gcc", fetch},
		{"REC/RS/RU trust gcc", trust},
		{"REC gcc", config.REC},
	} {
		checkGolden(t, v.name, detailed(t, config.Big216(), v.feat, []string{"gcc"}))
	}

	prog, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, feat := range []config.Features{config.RECRSRU, config.SMT} {
		res, err := Run(config.Big216(), feat, prog, 200_000, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// The per-interval counters and CPIs, not the Student-t summary:
		// its variance sum may fuse into FMA instructions on some
		// architectures, which would make the digest platform-dependent.
		checkGolden(t, "sampled "+config.FeatureName(feat)+" gcc", digest([]any{res.Intervals, res.Measured}))
	}
}
