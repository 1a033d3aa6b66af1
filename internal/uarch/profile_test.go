package uarch

import (
	"reflect"
	"testing"

	"halfprice/internal/trace"
)

// TestProfileForSamplingReadsOnlyMemAndBpred guards the sampling-plan
// key: the experiments package shares one window plan between every
// configuration with the same Mem and Bpred, which is sound only while
// the profile reads no other Config field. Each other field is changed
// in turn through reflection, so a field added later is covered too.
func TestProfileForSamplingReadsOnlyMemAndBpred(t *testing.T) {
	p, ok := trace.ProfileByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	const budget, interval = 20000, 2000
	base := Config4Wide()
	want := ProfileForSampling(base, trace.NewSynthetic(p, budget), interval)

	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Mem" || f.Name == "Bpred" {
			continue
		}
		cfg := base
		perturb(t, f.Name, reflect.ValueOf(&cfg).Elem().Field(i))
		if reflect.DeepEqual(cfg, base) {
			t.Fatalf("changing %s left the config unchanged", f.Name)
		}
		got := ProfileForSampling(cfg, trace.NewSynthetic(p, budget), interval)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Config.%s changed the sampling profile; key shared plans by it too", f.Name)
		}
	}
}

// perturb changes every leaf of v to a different value of its kind.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturb(t, name+"."+v.Type().Field(i).Name, v.Field(i))
		}
	default:
		t.Fatalf("Config.%s: no perturbation for kind %s; extend perturb", name, v.Kind())
	}
}
