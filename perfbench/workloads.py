"""The fixed settings of the three workloads, shared by ``run.py`` and ``child.py``.

Only the workload seed varies between runs; everything here is the same for
every run, so two runs of one seed do the same work.
"""

from __future__ import annotations

#: figure2: the paper's Figure 2 dataset at paper pipeline settings. A
#: 64-genome population for 5 generations makes ~355 fresh evaluations
#: whatever the seed (within 2 %); 16 genomes over 30 generations vary by
#: +-13 % from seed to seed, as the cache absorbs a seed-dependent share of
#: the requests.
FIGURE2_DATASET = "whitewine"
FIGURE2_POPULATION = 64
FIGURE2_GENERATIONS = 5
FIGURE2_FINETUNE_EPOCHS = 6
#: One baseline, as in the paper's Figure 2: the data split and classifier
#: come from the CLI's default seed 0, and the workload seed drives the GA.
#: With the baseline seed varied too, gain at 5 % loss moves from 9x to 16x
#: between seeds; with it fixed, between 9.5x and 11.3x.
FIGURE2_PIPELINE_SEED = 0
#: GA searches per figure2 run, each on its own seed derived from the
#: workload seed; their mean gain and hypervolume are reported. Later runs
#: repeat these searches, whose fronts must then be identical.
FIGURE2_SEARCHES = 4

#: campaign: 2 datasets x 2 seeds x {plain GA, GA + ridge prefilter},
#: robustness on. Only knobs every planned design keeps.
CAMPAIGN_DATASETS = ("seeds", "redwine")
#: The job seeds are fixed, so every run trains the same baselines (as
#: figure2 keeps one baseline); the workload seed draws the defect rate the
#: searches inject, which steers their robust objective. With the job seeds
#: drawn from the workload seed instead, one job's gain at 5 % loss ranges
#: from 4x to 23x and the campaign's mean moves by a third between seeds.
CAMPAIGN_SEEDS = (0, 1)
CAMPAIGN_FAULT_RATES = (0.04, 0.06)
CAMPAIGN_GA = {
    "population_size": 16,
    "n_generations": 3,
    "finetune_epochs": 4,
    "n_fault_trials": 4,
}
#: Resumes per cold campaign. One: a run repeats the whole campaign several
#: times instead, so resume_s is a median over as many fresh processes.
CAMPAIGN_RESUMES = 1

#: serve: dataset fronts in the generated campaign, and the server's LRU
#: bound (``repro serve --cache-size``), so hot hits sit next to misses.
SERVE_FRONTS = 16
SERVE_CACHE_SIZE = 4
