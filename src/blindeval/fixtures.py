"""Bundled four-case demo fixture.

Four concept-dense passages, each with four competing renderings: an
unassisted model pass, the scaffolded model pass, and two human
translations.  The fourth case lacks its second-human slot, which is
filled by the other human translation and recorded as a substitution.
The demo pipeline and the end-to-end tests run on exactly this corpus.
"""

from __future__ import annotations

from .corpus import Corpus, SourceCase, TranslationCandidate
from .persona import ReaderRole

DEMO_ROLES = (
    ReaderRole(
        id="R1",
        persona_text=(
            "a Western-trained physician interested in integrative medicine who has "
            "attended an International Advanced Training Program on Clinical Practice "
            "and Research Progress in Traditional Chinese Medicine in China."),
    ),
    ReaderRole(
        id="R2",
        persona_text=(
            "a licensed TCM practitioner in the United States who has received "
            "NCCAOM-accredited TCM training."),
    ),
    ReaderRole(
        id="R3",
        persona_text=(
            "a Western-trained physician working in the UK NHS system who has completed "
            "a Master's program in Chinese Medicine at the London Chinese Medicine College."),
    ),
)

_LI_CASE4 = (
    "If Huo (Fire) intends to descend but Dixuan (the mysterious earth-qi) stagnates "
    "and suppresses it, it cannot enter even though it descends."
)


def demo_corpus() -> Corpus:
    corpus = Corpus()

    corpus.add(SourceCase(
        id="case1",
        title="Contra-seasonal pathogenic wind",
        source_text=(
            "风从其所居之乡来为实风，"
            "主生长养万物；从其冲后来"
            "为虚风，伤人者也，主杀主"
            "害者。故圣人避风，如避矢"
            "石然。"),
        context_note=(
            "Wind blowing from a direction opposite to the one that normally dominates "
            "a given season harms the human body; sages avoid such wind."),
        translation_focus="the nature of term 虚邪 (contra-seasonal pathogenic qi)",
        candidates=[
            TranslationCandidate(
                id="llm-baseline", origin="llm_baseline",
                translator_label="DeepSeek V3.1 unassisted",
                text=('When the wind blows from the opposite direction (contrary to the '
                      'seasonal norm), it is called the "deficient wind," which harms the '
                      'human body and brings destruction and damage.')),
            TranslationCandidate(
                id="llm-final", origin="llm_adjusted",
                translator_label="DeepSeek V3.1 scaffolded",
                text=('When the wind blows from directions unattended by Taiyi (contrary '
                      'to the seasonal norm), it is called the "seasonal-opposing wind," '
                      'which harms the human body and brings destruction and damage.')),
            TranslationCandidate(
                id="unschuld", origin="human",
                translator_label="Paul U. Unschuld",
                text=("Wind that comes from behind the region where it should reside, that "
                      "is the depletion wind. It harms man; it masters killing; it masters "
                      "harming. Hence the sages avoided such winds as one avoids arrows "
                      "and stones.")),
            TranslationCandidate(
                id="li-zhaoguo", origin="human",
                translator_label="Li Zhaoguo",
                text=("The wind coming from the direction opposite to the seasonal position "
                      "is called Xufeng (Deficiency-Wind). It attacks and injures the human "
                      "body. That is why the sages carefully avoid it.")),
        ],
    ))

    corpus.add(SourceCase(
        id="case2",
        title="Functionality and relations of the Five Organs",
        source_text=(
            "春胜长夏，长夏胜冬，冬胜"
            "夏，夏胜秋，秋胜春，所谓"
            "得五行时之胜，各以气命其"
            "脏。"),
        context_note=(
            "Seasonal climate metaphors map the qi-transformation functions of the Five "
            "Organs onto Spring, Summer, Late Summer, Autumn, and Winter; they explain "
            "the generating and controlling cycles and underpin prognostic reasoning."),
        translation_focus=(
            "the functional relationships among the five organs across the four seasons"),
        candidates=[
            TranslationCandidate(
                id="llm-baseline", origin="llm_baseline",
                translator_label="DeepSeek V3.1 unassisted",
                text=('Summer overcomes Autumn,\nAutumn overcomes Spring.\nThis is what is '
                      'meant by "the conquest cycles of the five elements in their seasons."')),
            TranslationCandidate(
                id="llm-final", origin="llm_adjusted",
                translator_label="DeepSeek V3.1 scaffolded",
                text=("Summer (Fire-Qi) ascends and thereby fuses the hardness of Autumn "
                      "(Metal-Qi).\nAutumn (Metal-Qi) gathers and thereby shapes the "
                      "exuberance of Spring (Wood-Qi).\nThis is the dynamic balance known "
                      "as the conquest cycles of the Five Phases through the seasons.")),
            TranslationCandidate(
                id="unschuld", origin="human",
                translator_label="Paul U. Unschuld",
                text=("Spring dominates late summer; late summer dominates winter; winter "
                      "dominates summer; summer dominates autumn; autumn dominates spring. "
                      "This is the so-called domination among the five agents according to "
                      "the seasons, and each depot is named after the qi of its season.")),
            TranslationCandidate(
                id="li-zhaoguo", origin="human",
                translator_label="Li Zhaoguo",
                text=("Chunsheng (spring) restricts Changxia (long-summer), Changxia "
                      "restricts winter, winter restricts summer, summer restricts autumn "
                      "and autumn restricts spring. This is the mutual restriction of "
                      "Wuxing (Five-Elements) in their seasons, and the Zang-organs are "
                      "named accordingly.")),
        ],
    ))

    corpus.add(SourceCase(
        id="case3",
        title="Meridians and the Six Qi: root, branch and mediating qi",
        source_text="少阳之上，火气治之，中见厥阴。",
        context_note=(
            "The six climatic qi describe the basic quality of each meridian system (its "
            "root); the yin/yang groupings of the meridians are the apparent states (the "
            "branch); a mediating qi coordinates and transforms between root and branch, "
            "linking each paired interior-exterior meridian couple."),
        translation_focus=(
            "the nature of 标本中气 (root/ branch/ mediating qi of the meridians)"),
        candidates=[
            TranslationCandidate(
                id="llm-baseline", origin="llm_baseline",
                translator_label="DeepSeek V3.1 unassisted",
                text=("Above the Shaoyang (channel/system), the fire qi governs it; and its "
                      "interior correspondence is seen in the Jueyin.")),
            TranslationCandidate(
                id="llm-final", origin="llm_adjusted",
                translator_label="DeepSeek V3.1 scaffolded",
                text=("The Shaoyang system is fundamentally characterized by fire qi, "
                      "manifests its functional activity as Shaoyang, and operates through "
                      "the pivotal mediation of the Jueyin system.")),
            TranslationCandidate(
                id="unschuld", origin="human",
                translator_label="Paul U. Unschuld",
                text=("Above the minor yang, the fire qi controls it; in the center appears "
                      "the ceasing yin.")),
            TranslationCandidate(
                id="li-zhaoguo", origin="human",
                translator_label="Li Zhaoguo",
                text=("Shaoyang is dominated by Huoqi (Fire-Qi) above and is interiorly "
                      "connected with Jueyin.")),
        ],
    ))

    corpus.add(SourceCase(
        id="case4",
        title="Pathology of impaired seasonal descent",
        source_text=(
            "火欲降而地玄窒抑之，降而"
            "不入。"),
        context_note=(
            "When the annual motion (the overall quality of the year's climate) obstructs "
            "the descent and operation of a seasonal climate, qi stagnation arises; the "
            "passage guides acupuncture strategy for such years."),
        translation_focus=(
            "the patterns of interaction between the qi of Heaven and Earth and the "
            "related mechanisms of disease"),
        candidates=[
            TranslationCandidate(
                id="llm-baseline", origin="llm_baseline",
                translator_label="DeepSeek V3.1 unassisted",
                text=("When fire qi desires to descend but is obstructed and suppressed by "
                      "the earthly mysterious energy, it fails to enter despite its "
                      "downward movement.")),
            TranslationCandidate(
                id="llm-final", origin="llm_adjusted",
                translator_label="DeepSeek V3.1 scaffolded",
                text=('When the Fire Qi desires to descend and function, it is obstructed '
                      'and suppressed by the Water-dominated Annual Motion (Zhongyun), '
                      'represented by "Di Xuan".')),
            # the second-human slot has no rendering of this chapter; the other
            # human translation fills it, recorded explicitly as a substitution
            TranslationCandidate(
                id="li-zhaoguo-sub", origin="human",
                translator_label="Li Zhaoguo (substitute)",
                text=_LI_CASE4,
                substituted_for="unschuld"),
            TranslationCandidate(
                id="li-zhaoguo", origin="human",
                translator_label="Li Zhaoguo",
                text=_LI_CASE4),
        ],
    ))

    return corpus
