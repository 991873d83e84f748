"""Golden-output tripwire: `xkmeans run` at seed 0 must write the same bytes.

Each case pins the sha256 of every tree JSON, tree DOT and trace file it
writes, and of results.csv with its last column (wall_time_ms, the only
timing) removed. A change that means to keep outputs byte-identical must
leave these digests alone. A change that means to move bits regenerates
them with `PYTHONPATH=src python tests/test_golden.py` and says so in its
record.
"""

import csv
import hashlib
import io
import json
import sys
from importlib.resources import files

import pytest

from xkmeans.cli import main

IRIS = str(files("xkmeans").joinpath("data/iris.csv"))

CASES = {
    "iris": ["--data", IRIS, "--k", "3", "--leaves", "k,2k"],
    # k' = n: Iris has 149 distinct points, so exkmc, exkmc_imm and kdtree
    # stop at 149 leaves on zero-gain ties and gini_tree at 5
    "iris_deep": ["--data", IRIS, "--k", "3", "--leaves", "k,40,150"],
    "blobs_1d": ["--synth", "blobs", "--k", "3", "--d", "1", "--n", "300", "--leaves", "k,2k,4k"],
    "blobs_2d": ["--synth", "blobs", "--k", "4", "--d", "2", "--n", "300", "--leaves", "k,2k,4k"],
    # wider than one 64-feature scan block, so every scan runs three blocks;
    # its 4 build groups share 2 jobs. gini grows to 5 leaves, the others to 12
    "synthetic2_wide": [
        "--synth", "synthetic2", "--k", "3", "--d", "130", "--leaves", "k,4k", "--jobs", "2",
    ],
}

# case -> output file -> sha256
GOLDEN = {
    "blobs_1d": {
        "results.csv": "eb13430a87e6a4977f45a0f02fa254e7d92864cc6464056e7fbc635b64fb017f",
        "trace_exkmc_imm_k12.jsonl": "2526ae08d1e666fbb7d18003ac2f1510ab6a382d1075aa1eb0bf0a367d28f765",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k6.jsonl": "2d42812061dbfbe3ed8539ea462024fcd0f5663d73e2e9b1231dbc78607eb7a5",
        "trace_exkmc_k12.jsonl": "02d7e94eba0b68e0cd48fe5b72067d8a15d8b46a33f0feb85387e1680bf00c69",
        "trace_exkmc_k3.jsonl": "b507bf9fa5361b46deb9f5f5990bce3960eb5c66fc37eefcef27e45f8c22b73b",
        "trace_exkmc_k6.jsonl": "adf7e73ecd2c673994a2ef2cce81ed629a4c9ccdde214ccb24278da0fab32521",
        "tree_exkmc_imm_k12.dot": "05d763cb7dcecdf08ccb6033f01434da93108b8cefe7bd31acb9db0e07be0332",
        "tree_exkmc_imm_k12.json": "59f880afcf37915c51acbafd5756760f3b2a00e44844943f26824dccf4db4e82",
        "tree_exkmc_imm_k3.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_exkmc_imm_k3.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_exkmc_imm_k6.dot": "45e292ef76f6a13791fa951cdee3d7af249640795478e97f4360f424b87bc880",
        "tree_exkmc_imm_k6.json": "c43d68032c30cd392586856153a0cc944ff43d0017a3a33f36dc54598ad8e5b9",
        "tree_exkmc_k12.dot": "9c6bd65f692722411b600a6da548bc77e87945f802a4db3c06ad175a6db9a9a6",
        "tree_exkmc_k12.json": "6dd07551497b42ed5a11405c282ae166e6b753d26f031bb6960e1448e3607633",
        "tree_exkmc_k3.dot": "4d23d21976d8609cc6af2ca33cb9d6fb79503bb6967209ea71f3217a74fa3045",
        "tree_exkmc_k3.json": "bb4769bbf13d1d0ce367c055bf1a0c1cce60f2af2f593b49da529662cb63feef",
        "tree_exkmc_k6.dot": "d3f19673272c7ee9710b1e44150da8b2865f0f29dd9fcc7ab2d9863ba2d70dc0",
        "tree_exkmc_k6.json": "69e86418f9dda5eccaa64ee38a2a661e15bf4f629a861ef78332d7c7b3b3ae86",
        "tree_gini_tree_k12.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_gini_tree_k12.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_gini_tree_k3.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_gini_tree_k3.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_gini_tree_k6.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_gini_tree_k6.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_imm_k12.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_imm_k12.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_imm_k3.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_imm_k3.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_imm_k6.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_imm_k6.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_kdtree_k12.dot": "3998965c0a01f917051fa710379a50c2ce1a0ce8f089200773c345993e1bccaf",
        "tree_kdtree_k12.json": "2fc5254a08bef5520700d017905dbb567250088782a9917f7ede8540b6485115",
        "tree_kdtree_k3.dot": "1efbda0ae97c4462428c15bd2b5a97f8bcede5845d6aa72006851592cb59c153",
        "tree_kdtree_k3.json": "d573843aeb467ea1717db0d8dfa936f1ba2073cde64ffb18fdbc24ada1232b47",
        "tree_kdtree_k6.dot": "bf0672d50af07749b83d5f51a774c035b58630e780848208ef7c42cc83ba44a1",
        "tree_kdtree_k6.json": "bd31e619c94c228f782c4d852163650d37c16bad872689974021dc6813929e71"
    },
    "blobs_2d": {
        "results.csv": "4ca4f05cf66f833862cbd2faf98c741ab849ccd97682ef75feb5e65c0b76590c",
        "trace_exkmc_imm_k16.jsonl": "2657f91cfab3ce78cbd1b62cb689427810a484ae4084a33537a571832f611aaa",
        "trace_exkmc_imm_k4.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k8.jsonl": "0e2e5abbf11138ef096643f117dd7ec55ccf698b8efe81404807f6ab9f9a8932",
        "trace_exkmc_k16.jsonl": "93cdc6aaf1b0a046fb03afea98f68b98fca08b52065d41e6c4159d138c99f6b2",
        "trace_exkmc_k4.jsonl": "fdf7710ee30fe0d28182fcbc1f1e4354ab0673569238e396984c22bb3ee258a0",
        "trace_exkmc_k8.jsonl": "cf96259b429fb83e1da5e80f2f5dc50717ed8af42f7bfbca91b765fe850e9d86",
        "tree_exkmc_imm_k16.dot": "33d056094c2f822d3f118f28bb078b86548c9b294172b295b82086f3a682a2d7",
        "tree_exkmc_imm_k16.json": "10cb0e4ec7f25f6539d4eed8dc92473ac63d8b827bdf4d0579efa93959969266",
        "tree_exkmc_imm_k4.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_exkmc_imm_k4.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_exkmc_imm_k8.dot": "bd3bf14016924cab2289fe682470c1dc55c9500f44c99e7b78c2831f4b6ff001",
        "tree_exkmc_imm_k8.json": "9af3add094b96c1affd5ebdb4b00ad1c3c326de259ab43cc07e4178af85a3773",
        "tree_exkmc_k16.dot": "d9cb246d53c42f5ea6ca17ad5ac82198e3eb566de60c5dd2a82fe596eaa65d98",
        "tree_exkmc_k16.json": "9787d7feed519e7e780ef980c16ec0a1ba90d3d1528db36c93a1749d0be52420",
        "tree_exkmc_k4.dot": "2b0d30b81ba37bcd500885757643ed5497b0fe0f0b6c944bbd76a9c04d649e7c",
        "tree_exkmc_k4.json": "3a37dce2d44149d204de7f46e69f9aaf2ab5c8fde97da67568c23735a67382ef",
        "tree_exkmc_k8.dot": "32fd5a2abdab5b0fd38906da324599e70f18a82152f878006788af9a01126dcc",
        "tree_exkmc_k8.json": "7ae4b07737f4a49b7cfc14a4bc043ab3695de345273fcbc564812806931a59a2",
        "tree_gini_tree_k16.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_gini_tree_k16.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_gini_tree_k4.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_gini_tree_k4.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_gini_tree_k8.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_gini_tree_k8.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_imm_k16.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_imm_k16.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_imm_k4.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_imm_k4.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_imm_k8.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_imm_k8.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_kdtree_k16.dot": "c69c5f97cb1ff4c72e8eb4cabfda874c8d31f9ca652a570e20def1afdf6cf77b",
        "tree_kdtree_k16.json": "993a4fbc0aac19dde9a76400b0c91874b528701f6deb54be3b5c87ba9b28c2d8",
        "tree_kdtree_k4.dot": "0941e9edb4a6c554941661a0568f4ba3e5b258ab8ff092401185f63b0efdcb04",
        "tree_kdtree_k4.json": "392aea1cec2c4017d26658ed366afbb51ad7348638f8cd5f49d46eb4e22f0552",
        "tree_kdtree_k8.dot": "a55bf6511e347cf3fbc90773526d7f50558285342d2e9a9c3a8c1add62a024d7",
        "tree_kdtree_k8.json": "0a62d3321d998c88746ca7505022af1071e9cfd145cbd79bc4a9b42227aeb81e"
    },
    "iris": {
        "results.csv": "7ddcb5f8e83cd6728eaf753b93bf0ec3cc2c87d589daedec4a4c8cd535c97016",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k6.jsonl": "6907f0b9674542a8b02245a9f14fb35cad8db13ea78c54fa6dbd3dd90892b22b",
        "trace_exkmc_k3.jsonl": "a347111417136714e5058dcf467527949dc6fa1f54d5a74c8639a42aa57bf3e9",
        "trace_exkmc_k6.jsonl": "488617214f9282b2f71fe478d02345660b5e3043254e40d4aaf4da90f0ecef1e",
        "tree_exkmc_imm_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_exkmc_imm_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_exkmc_imm_k6.dot": "775fb47dd33eb0f595d04e6c4322ee148bcce8854846d1240e1a7ffca0c9bccf",
        "tree_exkmc_imm_k6.json": "2e7a3fc45ce5b8b7612743fe84aff6ff0543fe4aa8674747277f272590b4a2a1",
        "tree_exkmc_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_exkmc_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_exkmc_k6.dot": "775fb47dd33eb0f595d04e6c4322ee148bcce8854846d1240e1a7ffca0c9bccf",
        "tree_exkmc_k6.json": "2e7a3fc45ce5b8b7612743fe84aff6ff0543fe4aa8674747277f272590b4a2a1",
        "tree_gini_tree_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_gini_tree_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_gini_tree_k6.dot": "ab5629ec4e06b0f342dee0621116d95e65f10a565500f35c1bac4a992affe109",
        "tree_gini_tree_k6.json": "722d13b81358ebc8ccacb89e499cedea5d1785cbea13696a0d34c383235931f0",
        "tree_imm_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_imm_k6.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k6.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_kdtree_k3.dot": "dc996082cc50da1879594e9bfb2dd3690620ce072145650b2a06ce2fb16fcf90",
        "tree_kdtree_k3.json": "c8199766f5ca949c1e03a0dcebc9744f010e04939f087de0fea7eb2c93f33a0a",
        "tree_kdtree_k6.dot": "ac5063670e6445f17ff7344ba42dc43d235df383712eb87883982c9fed06a0bb",
        "tree_kdtree_k6.json": "11f2e8974adfc9a47d817504e2605ac93af8a3fdb546bf8da3ddda697bf856c4"
    },
    "iris_deep": {
        "results.csv": "e7222a287a0edced81bc095a0210fc9d48bc174f2342c643b0588f8932f73100",
        "trace_exkmc_imm_k150.jsonl": "e51075e2acd2af3a896b4473d00c1ae454a47d129468b6682426b3beb3cef0c9",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k40.jsonl": "af564920c26fca2a6d03ac6757dfca724352517fdaa854e2be9e6f9d118d5e40",
        "trace_exkmc_k150.jsonl": "6360b5f3af241de2f9e3b71fa5127fcbd241726841d2b5b8b2f44e58793ab11e",
        "trace_exkmc_k3.jsonl": "a347111417136714e5058dcf467527949dc6fa1f54d5a74c8639a42aa57bf3e9",
        "trace_exkmc_k40.jsonl": "60549a22cc490f6419300a204a31f2abe112a1bf458f00bceef18ab4c352287a",
        "tree_exkmc_imm_k150.dot": "f3b89f74735907361aa9f34114a0aa0c64e3fc6493bd58b359b30727184660fc",
        "tree_exkmc_imm_k150.json": "5d3efcf7970e6c356ec9f55882889ce89e9ece1e831ef15695b3d77e1b5195f1",
        "tree_exkmc_imm_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_exkmc_imm_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_exkmc_imm_k40.dot": "4899a88201b321ef0e34deafc8e3f72ed8f4ba60b66f13bdc6455552131a74a1",
        "tree_exkmc_imm_k40.json": "80d38079cd4861fc09619e15c757633f91c97f29efe02611c2e6182aa91d9fbb",
        "tree_exkmc_k150.dot": "f3b89f74735907361aa9f34114a0aa0c64e3fc6493bd58b359b30727184660fc",
        "tree_exkmc_k150.json": "5d3efcf7970e6c356ec9f55882889ce89e9ece1e831ef15695b3d77e1b5195f1",
        "tree_exkmc_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_exkmc_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_exkmc_k40.dot": "4899a88201b321ef0e34deafc8e3f72ed8f4ba60b66f13bdc6455552131a74a1",
        "tree_exkmc_k40.json": "80d38079cd4861fc09619e15c757633f91c97f29efe02611c2e6182aa91d9fbb",
        "tree_gini_tree_k150.dot": "ab5629ec4e06b0f342dee0621116d95e65f10a565500f35c1bac4a992affe109",
        "tree_gini_tree_k150.json": "722d13b81358ebc8ccacb89e499cedea5d1785cbea13696a0d34c383235931f0",
        "tree_gini_tree_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_gini_tree_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_gini_tree_k40.dot": "ab5629ec4e06b0f342dee0621116d95e65f10a565500f35c1bac4a992affe109",
        "tree_gini_tree_k40.json": "722d13b81358ebc8ccacb89e499cedea5d1785cbea13696a0d34c383235931f0",
        "tree_imm_k150.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k150.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_imm_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_imm_k40.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k40.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_kdtree_k150.dot": "321cabbdcbd393ad33cf7e9e729b75064ed9ec712f80e2eb9bbade732ed61312",
        "tree_kdtree_k150.json": "61efcda650067cef903e41271eeab3f1c3a0419d24e9f0374f10fc1656a9b977",
        "tree_kdtree_k3.dot": "dc996082cc50da1879594e9bfb2dd3690620ce072145650b2a06ce2fb16fcf90",
        "tree_kdtree_k3.json": "c8199766f5ca949c1e03a0dcebc9744f010e04939f087de0fea7eb2c93f33a0a",
        "tree_kdtree_k40.dot": "a1a139880c771b7dd3943e22345a3581274c7a77c24310293c817d560b49d02b",
        "tree_kdtree_k40.json": "e489e03868a9e6e53a42283cca22a4200b4b47d006a4e1c29f68341c7dac003f"
    },
    "synthetic2_wide": {
        "results.csv": "532cdb9c37a8c65815135526cf945e239032ec53e92b7db1712e6b0764fd2edd",
        "trace_exkmc_imm_k12.jsonl": "8934dce3e37c660da6fc1260d6f66ba1d894e6e2ce907cf571def42102ccddc8",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_k12.jsonl": "ceff09431754552a1cee2e6658e11565124edc7ea22c83a7b4c5656c0a79c006",
        "trace_exkmc_k3.jsonl": "b2cde1725071190821404aae3aa9107e3f35a69a942a556d30a7028e49968d03",
        "tree_exkmc_imm_k12.dot": "fb5b224c2ce9fdee5832ddd4c60ca6af8fa8d14e3170ceeda1c558d86de86a80",
        "tree_exkmc_imm_k12.json": "7e3cb59cf75815bc246b42c7419eed6c69316bf509af19784d943166a5550f0e",
        "tree_exkmc_imm_k3.dot": "4d368b1090ee00e93c841e2ff77ab902ef14c379121eb1cf03361f90a0db6661",
        "tree_exkmc_imm_k3.json": "eec0043e436c1680d24919a5da5d3aecff9208e730b7dfcc379f0eb3a7a4bbc4",
        "tree_exkmc_k12.dot": "54d5d295c1791dc708e77d9e6ebe4a765c48074b3b20c7e33b370d4378fad33e",
        "tree_exkmc_k12.json": "e4a7ff7c7fca684b3ee41243cc8b43c3783883b4ac77335d3158d904c43ca71e",
        "tree_exkmc_k3.dot": "d20ef5c9776946165a888ed42120548b4faf144aa34d1e2125423cea87ff406d",
        "tree_exkmc_k3.json": "1d8dfffcf5da88a6d59346cb81acd287d41b5fc185a2361c7fc42d95946a3284",
        "tree_gini_tree_k12.dot": "d1983e53a185a97b9f472e472be537d9a4f163126b369f27e7d054e9f30ce2bf",
        "tree_gini_tree_k12.json": "3a619cadbea180019f0aab414f3f39463fc6b5a47860406ff47649bf9133000e",
        "tree_gini_tree_k3.dot": "f888db93d4072db0ae96a7e2a930cd76eab776a9e2cb2883d9781b09a33f3946",
        "tree_gini_tree_k3.json": "9464b0f0d8aed4696844035d46d7071e3baed8394114ad5210cced78d591b9b6",
        "tree_imm_k12.dot": "4d368b1090ee00e93c841e2ff77ab902ef14c379121eb1cf03361f90a0db6661",
        "tree_imm_k12.json": "eec0043e436c1680d24919a5da5d3aecff9208e730b7dfcc379f0eb3a7a4bbc4",
        "tree_imm_k3.dot": "4d368b1090ee00e93c841e2ff77ab902ef14c379121eb1cf03361f90a0db6661",
        "tree_imm_k3.json": "eec0043e436c1680d24919a5da5d3aecff9208e730b7dfcc379f0eb3a7a4bbc4",
        "tree_kdtree_k12.dot": "8e5629df60542108ad20bf2b234a2dc96cf84974889c4c7d0a765b1a666aa2cc",
        "tree_kdtree_k12.json": "6a7ab620db02639d0b8be6801bec2f891f2d50b0247564f8bcc7b57657b79e0f",
        "tree_kdtree_k3.dot": "dcb5e8d91ae9930bb4e47d0e3823400f85ce03bf50525b7068dbbb851e4caf58",
        "tree_kdtree_k3.json": "4dcf4c2a45698c61a40eef37b9ba1a19bb17a64d7b7a28fb198ac9d9c34caaf3"
    }
}


def _results_without_timing(path) -> bytes:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "wall_time_ms"  # the one timing column is the last
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(row[:-1] for row in rows)
    return out.getvalue().encode()


def digests(case: str, out_dir) -> dict[str, str]:
    """sha256 of each output file of one case, run into `out_dir`."""
    assert main(["run", *CASES[case], "--seed", "0", "--out", str(out_dir)]) == 0
    found = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "results.csv":
            data = _results_without_timing(path)
        elif path.name.startswith(("tree_", "trace_")):
            data = path.read_bytes()
        else:
            continue
        found[path.name] = hashlib.sha256(data).hexdigest()
    return found


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    got = digests(case, tmp_path)
    assert sorted(got) == sorted(GOLDEN[case]), "a different set of output files"
    changed = [name for name in got if got[name] != GOLDEN[case][name]]
    assert not changed, f"outputs changed: {changed}"


if __name__ == "__main__":
    # print a fresh GOLDEN table, for a change that moves bits on purpose
    import contextlib
    import tempfile
    from pathlib import Path

    table = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
            table[case] = digests(case, Path(tmp))
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    print()
