package timeline

// Preset is a named, curated schedule — the timeline.* scenario family
// behind the CLI's -timeline flag, mirroring the scale.* family's
// shape: each preset targets one longitudinal question the paper could
// only gesture at from aggregate data.
type Preset struct {
	// Name is the CLI key, e.g. "timeline.dissolution".
	Name string
	// Spec is the schedule in grammar form (vetted by tests: it always
	// parses, and is canonical).
	Spec string
	// Description is the one-line summary shown by -list.
	Description string
}

// presetFamily is the registered timeline.* family.
var presetFamily = []Preset{
	{
		Name: "timeline.dissolution",
		Spec: "epochs=14;days=1;@5:hydra-dissolution",
		Description: "two calibrated weeks with the Protocol Labs Hydra fleet dissolving " +
			"mid-run — the aftermath the paper could only speculate about",
	},
	{
		Name: "timeline.exodus",
		Spec: "epochs=12;days=1;@4:depart:hetzner_online;@8:churn:2",
		Description: "a mid-tier cloud provider goes dark at epoch 4, then residential " +
			"churn doubles at epoch 8 — compounding decentralization stress",
	},
	{
		Name: "timeline.boom",
		Spec: "epochs=12;days=1;@3:arrive:choopa:120;@7:arrive:amazon_aws:80",
		Description: "cloud build-out: two waves of provider arrivals concentrate the " +
			"DHT further, epoch by epoch",
	},
	{
		Name: "timeline.turbulence",
		Spec: "epochs=10;days=1;@2:gateway-surge;@5:aws-outage;@8:churn:0.5",
		Description: "gateway usage doubles, AWS goes dark, then the residential fringe " +
			"calms — three regime changes in ten epochs",
	},
	{
		Name: "timeline.siege",
		Spec: "epochs=8;days=1;@2:attack.sybil-eclipse;@4:attack.provider-spam;@6:attack.gateway-stampede",
		Description: "an adversary escalates epoch by epoch: sybil eclipse, then provider-record " +
			"spam, then a poisoned gateway stampede — the attack.* family as a longitudinal siege",
	},
}

// Presets returns the timeline.* family in registration order.
func Presets() []Preset {
	return append([]Preset(nil), presetFamily...)
}

// LookupPreset resolves a timeline.* preset by name.
func LookupPreset(name string) (Preset, bool) {
	for _, p := range presetFamily {
		if p.Name == name {
			return p, true
		}
	}
	return Preset{}, false
}
