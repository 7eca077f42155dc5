package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"ecnsharp/internal/workload"
)

// TestTrafficDigests pins the flows every traffic shape generates at seeds 1
// and 2: the SHA-256 of each flow's fields, one line per flow in order, so
// a moved RNG draw fails here and names its shape. Update a row only for a
// change meant to move that shape's flows.
func TestTrafficDigests(t *testing.T) {
	cell := func(topo, wl string) RunConfig {
		cfg, err := testCell(fmt.Sprintf(`{"topo":%q,"workload":%q,"flows":200}`, topo, wl)).RunConfig()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	scheme := SimECNSharp()
	for _, tc := range []struct {
		shape   string
		cfg     RunConfig
		flows   int // at seed 1
		digests [2]string
	}{
		{"cell/star/websearch", cell("star", "websearch"), 200, [2]string{
			"4fe15d9459199e2189add09b20f4eaaffd230761eef4e5296330bf0fca565fcf",
			"f941b8bdc6c5958ab6ff1c959ef70ad5da67fd9498a7edaed938b3c8a70ec369"}},
		{"cell/star/datamining", cell("star", "datamining"), 200, [2]string{
			"51b879f2a015521c94a2c98b736562a7f755e2abc726c584e004ef6db991a932",
			"a72ee44d55398e6257d1d3dcc4796a7904103b153aa815c42192bac5ef4a78d6"}},
		{"cell/leafspine/websearch", cell("leafspine", "websearch"), 200, [2]string{
			"c3a75e0e9f8a3e585b1234724f772957953ca37884bd67685e79de5b5671732c",
			"025aea381a41080b1ea2e673b1ccc85503fcd7e8d56b3cfb889f74b07f3fc6ab"}},
		{"cell/leafspine/datamining", cell("leafspine", "datamining"), 200, [2]string{
			"0a0d3ffe178b30f4196e9d4b433abd2bf29e1af88c73a23fcef75becf23fc0c2",
			"327795c0db1e843c345b25302cef19cc13fdecf18fa522ac4174404d55f47ff5"}},
		{"incast/background", incastCfg(scheme, 100, 200, false), 304, [2]string{
			"234f8649e98aa662f6000163417139d8d5a7261e760f86c010bd240094cdf3ad",
			"efb3bbccf07484c9ed31dedf6bc815748bf896ec6985387753fabc029d310c2b"}},
		{"incast/bare", incastCfg(scheme, 100, 0, false), 104, [2]string{
			"1df5bb322b4ea31353c062562d2d6c4f1031662fc0b39a527b206ab0e84ff0fe",
			"11436463f27a8215fbbbe9afeebd398e167cc0de70b8e85debafda9f6a00b1f6"}},
		{"fig13/probes", fig13Cfg(scheme, 40), 40, [2]string{
			"92520c295bbd86eb00d6ace7a6df62efc8ccbc51e44550cd561d2d3c9c4b7614",
			"a2030b7cf3adc45985ca71b383d39e3a101972e50f020901383faf0ed51a4f49"}},
		{"churn/flap", flapScenario().cfg(1, scheme), 84, [2]string{
			"e99f2d3fb5228c578b7c261892461818dda98a0a9ef351f74f8095f45188234d",
			"2c0662b8158eb2b8cd2bf7c58c39d0712c2fdbe623b9c1b58e21ef0c868bb4de"}},
		{"churn/incast", incastScenario().cfg(1, scheme), 14, [2]string{
			"e0d708cef589de3d093a96c6456ba5fbee1c4c9ae42e5cab8d88fa977f7cf14d",
			"9da9dc1c1bbaa0b87c1488c81b00094c7766bec4472e9a4b41b41fc1954623b8"}},
		{"churn/maint", maintScenario().cfg(1, scheme), 120, [2]string{
			"c6732abecdfa59c95c01d4746b4c236f0f793b1a5a8afe9e4536c3de6356dc2c",
			"8be26be356f7e0569b3d62c5fa8e7350ccbcfc4b9d4e6c5b6967635897da399d"}},
	} {
		for i, seed := range []int64{1, 2} {
			flows := tc.cfg.FlowGen(TrafficRand(seed))
			if seed == 1 && len(flows) != tc.flows {
				t.Errorf("%s: %d flows at seed 1, want %d", tc.shape, len(flows), tc.flows)
			}
			if got := flowDigest(flows); got != tc.digests[i] {
				t.Errorf("%s at seed %d: flow digest %s, want %s", tc.shape, seed, got, tc.digests[i])
			}
		}
	}
}

// flowDigest is the hex SHA-256 of flows, one line of fields per flow.
func flowDigest(flows []workload.FlowSpec) string {
	h := sha256.New()
	for _, f := range flows {
		fmt.Fprintf(h, "%d %d %d %d %t %d\n", f.Src, f.Dst, f.Size, int64(f.Start), f.Query, f.Class)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunConfigIsData: nothing reachable from a RunConfig is a func,
// interface or channel: a run is plain data, ready to be encoded and keyed.
// The sink a run streams its trace through is RunContext's argument.
func TestRunConfigIsData(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Func, reflect.Interface, reflect.Chan:
			t.Errorf("%s is a %s", path, ty)
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			if seen[ty] { // structs end the recursion; every field is checked once per struct type
				return
			}
			seen[ty] = true
			for i := range ty.NumField() {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		}
	}
	walk("RunConfig", reflect.TypeOf(RunConfig{}))
}
