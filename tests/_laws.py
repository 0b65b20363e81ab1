"""The laws whose cell laws the tests check: the registry models and four
more of at most four hulls, each reaching a different branch of the build
(``splittree._cell_law``); and two laws of five and seven hulls, which are
never tabled and draw through the split tree at every n."""

from beliefclt import MODEL_REGISTRY, BeliefModel, FocalElement


def non_dyadic_model():
    # endpoints 0.1, 0.3, 0.7 and 0.2 are not exact in binary, so hull sums
    # round and their bits depend on the order of the additions
    return BeliefModel(
        [(FocalElement([(0.1, 0.3)]), 0.25),
         (FocalElement([(0.2, 0.7)]), 0.35),
         (FocalElement([(0.3, 0.3)]), 0.1),
         (FocalElement([(0.1, 0.2), (0.3, 0.7)]), 0.3)], 1.0)


def five_hull_model():
    # five hulls, so never tabled
    return BeliefModel(
        [(FocalElement([(0.0, 1.0)]), 0.2),
         (FocalElement([(0.5, 1.5)]), 0.15),
         (FocalElement([(-1.0, 0.5)]), 0.25),
         (FocalElement([(1.0, 2.0)]), 0.3),
         (FocalElement([(-0.5, 2.0)]), 0.1)], 3.0)


def seven_hull_model():
    # seven hulls, so never tabled
    return BeliefModel(
        [(FocalElement([(0.0, 1.0)]), 0.1),
         (FocalElement([(0.25, 0.5)]), 0.2),
         (FocalElement([(-1.0, 0.75)]), 0.1),
         (FocalElement([(0.75, 1.25)]), 0.15),
         (FocalElement([(0.5, 1.0)]), 0.15),
         (FocalElement([(-0.5, 1.5)]), 0.2),
         (FocalElement([(-0.5, 1.0)]), 0.1)], 2.0)


def falling_pair_model():
    # four hulls: the last split (hulls 2 and 3) moves S_min by -2 as its
    # left count grows, a falling step, and S_max not at all; the pair
    # beside it (hulls 0 and 1) leaves S_min still (d = 0) and moves S_max
    # by -1, so each crossing of S_min holds one b over the pair's window
    return BeliefModel(
        [(FocalElement([(0.0, 1.0)]), 0.3),
         (FocalElement([(0.0, 2.0)]), 0.2),
         (FocalElement([(-1.0, 1.5)]), 0.25),
         (FocalElement([(1.0, 1.5)]), 0.25)], 2.0)


def falling_runs_model():
    # four hulls: the last split (hulls 2 and 3) moves S_min by -4 steps of
    # 1/2 as its left count grows, and S_max not at all; the pair beside it
    # (hulls 0 and 1) moves S_min by -1 and S_max by -2, so each crossing's
    # b falls as the pair's left count grows, over runs of about four
    # counts, and the pair's window is cut where S_max crosses a threshold
    return BeliefModel(
        [(FocalElement([(0.0, 1.0)]), 0.3),
         (FocalElement([(0.5, 2.0)]), 0.2),
         (FocalElement([(-1.0, 1.5)]), 0.25),
         (FocalElement([(1.0, 1.5)]), 0.25)], 2.0)


def still_pair_model():
    # four hulls: the last split (hulls 2 and 3) moves S_min by 3 as its left
    # count grows, and S_max not at all; the pair beside it (hulls 0 and 1)
    # moves S_min by -1 and leaves S_max still, so the closed pair's window
    # is one piece, cut by no threshold of S_max
    return BeliefModel(
        [(FocalElement([(0.0, 2.0)]), 0.3),
         (FocalElement([(1.0, 2.0)]), 0.2),
         (FocalElement([(2.0, 3.0)]), 0.25),
         (FocalElement([(-1.0, 3.0)]), 0.25)], 3.0)


LAW_MODELS = {**MODEL_REGISTRY, "non_dyadic": non_dyadic_model(),
              "falling_pair": falling_pair_model(), "falling_runs": falling_runs_model(),
              "still_pair": still_pair_model()}
UNTABLED_MODELS = {"five_hulls": five_hull_model(), "seven_hulls": seven_hull_model()}
