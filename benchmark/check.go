package main

import (
	"bytes"
	"fmt"
	"time"

	"flashps/internal/diffusion"
	"flashps/internal/img"
	"flashps/internal/serve"
)

// reference recomputes served edits on a private engine with the server's
// weights. Edits are deterministic in (weights, template, request), so the
// served PNG must match byte for byte however the server batched it.
type reference struct {
	seed      uint64
	eng       *diffusion.Engine
	templates map[uint64]*diffusion.TemplateCache
	prepareMS []float64
}

func newReference(seed uint64) (*reference, error) {
	eng, err := diffusion.NewEngine(engineModel, engineSeed)
	if err != nil {
		return nil, err
	}
	return &reference{seed: seed, eng: eng, templates: make(map[uint64]*diffusion.TemplateCache)}, nil
}

// template prepares template id the way Server.Prepare does, once.
func (r *reference) template(id uint64) (*diffusion.TemplateCache, error) {
	if tc, ok := r.templates[id]; ok {
		return tc, nil
	}
	req := prepareRequest(r.seed, id)
	h, w := r.eng.Codec.ImageSize(engineModel.LatentH, engineModel.LatentW)
	start := time.Now()
	tc, _, err := r.eng.PrepareTemplate(id, img.SynthTemplate(req.ImageSeed, h, w), req.Prompt, false)
	if err != nil {
		return nil, err
	}
	r.prepareMS = append(r.prepareMS, ms(time.Since(start)))
	r.templates[id] = tc
	return tc, nil
}

// editRequest turns an API request into the engine request the server's
// preprocessing stage builds for it.
func (r *reference) editRequest(api serve.EditRequestAPI) (diffusion.EditRequest, error) {
	tc, err := r.template(api.TemplateID)
	if err != nil {
		return diffusion.EditRequest{}, err
	}
	m, err := api.Mask.Build(engineModel.LatentH, engineModel.LatentW)
	if err != nil {
		return diffusion.EditRequest{}, err
	}
	return diffusion.EditRequest{Template: tc, Mask: m, Prompt: api.Prompt,
		Seed: api.Seed, Mode: diffusion.EditCachedY}, nil
}

// verify recomputes one served edit and compares the PNG bytes.
func (r *reference) verify(api serve.EditRequestAPI, served []byte) error {
	req, err := r.editRequest(api)
	if err != nil {
		return err
	}
	res, err := r.eng.Edit(req)
	if err != nil {
		return err
	}
	want, err := img.EncodePNG(res.Image)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, served) {
		return fmt.Errorf("served image_png (%d bytes) differs from the recomputed edit (%d bytes)", len(served), len(want))
	}
	return nil
}

// verifyAll checks every edit the harness kept for checking.
func (r *reference) verifyAll(h *harness) error {
	h.mu.Lock()
	checked := append([]op(nil), h.checked...)
	h.mu.Unlock()
	// A failed edit already makes the run incorrect; fewer than keep are
	// kept only when the window was too short to send that many.
	if len(checked) == 0 {
		return fmt.Errorf("none of the first %d edits succeeded", h.keep)
	}
	for _, o := range checked {
		if err := r.verify(h.sched[o.Index].API, o.Edit.ImagePNG); err != nil {
			return fmt.Errorf("edit %d (template %d, mask %.3f): %w",
				o.Index, h.sched[o.Index].API.TemplateID, o.Edit.MaskRatio, err)
		}
	}
	return nil
}
